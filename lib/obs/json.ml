type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- Emitter ----------------------------------------------------------- *)

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_to_string f =
  if not (Float.is_finite f) then "null" (* JSON has no nan/inf *)
  else
    let s = Printf.sprintf "%.17g" f in
    (* trim to the shortest representation that round-trips *)
    let shorter = Printf.sprintf "%.12g" f in
    if float_of_string shorter = f then shorter else s

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_to_string f)
  | String s -> escape_to buf s
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          emit buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_to buf k;
          Buffer.add_char buf ':';
          emit buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  emit buf v;
  Buffer.contents buf

(* --- Parser ------------------------------------------------------------ *)

exception Parse_error of string

let max_depth = 512

(* The whole parse state: the input, the cursor and the open-container
   count. Every reader below is a top-level function over this one record,
   so a parse allocates only the values it returns: no option per peek,
   no closure per container, no substring per integer. [parse] and
   [Serve.Jsonl]'s one-pass decoder walk their input with these same
   readers, so both accept the same bytes and fail with the same text at
   the same offset. *)
type cursor = { src : string; len : int; mutable pos : int; mutable depth : int }

let cursor s = { src = s; len = String.length s; pos = 0; depth = 0 }
let fail p msg = Parse_error (Printf.sprintf "at offset %d: %s" p.pos msg)
let error p fmt = Printf.ksprintf (fun msg -> raise (fail p msg)) fmt

(* Comparisons rather than a [match], so that every caller inlines it:
   it runs before every token. *)
let[@inline] is_ws c =
  Char.code c <= 32 && (c = ' ' || c = '\n' || c = '\t' || c = '\r')

let rec skip_ws_from p i =
  if i < p.len && is_ws (String.unsafe_get p.src i) then skip_ws_from p (i + 1)
  else p.pos <- i

(* Compact input has no whitespace between tokens, so the test for none
   is kept small enough to be inlined at every call. *)
let[@inline] skip_ws p =
  if p.pos < p.len && is_ws (String.unsafe_get p.src p.pos) then
    skip_ws_from p (p.pos + 1)

(* The byte under the cursor, or '\000' at the end of input. Callers only
   compare it with other bytes, so the two never need telling apart. *)
let[@inline] peek p = if p.pos < p.len then String.unsafe_get p.src p.pos else '\000'

let[@inline] expect p c =
  if p.pos >= p.len then error p "expected %C, found end of input" c;
  let c' = String.unsafe_get p.src p.pos in
  if c' <> c then error p "expected %C, found %C" c c';
  p.pos <- p.pos + 1

let literal p word v =
  let l = String.length word in
  if p.pos + l > p.len then error p "invalid literal";
  for i = 0 to l - 1 do
    if String.unsafe_get p.src (p.pos + i) <> String.unsafe_get word i then
      error p "invalid literal"
  done;
  p.pos <- p.pos + l;
  v

(* encode one scalar value; JSON surrogate pairs are combined by the
   caller before this point *)
let utf8_of_code buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let hex4 p =
  if p.pos + 4 > p.len then error p "truncated \\u escape";
  let v = ref 0 in
  for i = p.pos to p.pos + 3 do
    let d =
      match p.src.[i] with
      | '0' .. '9' as c -> Char.code c - Char.code '0'
      | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
      | c -> error p "invalid hex digit %C in \\u escape" c
    in
    v := (!v lsl 4) lor d
  done;
  p.pos <- p.pos + 4;
  !v

(* The rest of a string holding at least one escape, from the cursor (on
   a backslash or a plain byte) to the closing quote, appended to [buf]. *)
let rec escaped_string p buf =
  if p.pos >= p.len then error p "unterminated string";
  match String.unsafe_get p.src p.pos with
  | '"' ->
      p.pos <- p.pos + 1;
      Buffer.contents buf
  | '\\' ->
      p.pos <- p.pos + 1;
      if p.pos >= p.len then error p "truncated escape";
      (match String.unsafe_get p.src p.pos with
      | '"' -> p.pos <- p.pos + 1; Buffer.add_char buf '"'
      | '\\' -> p.pos <- p.pos + 1; Buffer.add_char buf '\\'
      | '/' -> p.pos <- p.pos + 1; Buffer.add_char buf '/'
      | 'n' -> p.pos <- p.pos + 1; Buffer.add_char buf '\n'
      | 'r' -> p.pos <- p.pos + 1; Buffer.add_char buf '\r'
      | 't' -> p.pos <- p.pos + 1; Buffer.add_char buf '\t'
      | 'b' -> p.pos <- p.pos + 1; Buffer.add_char buf '\b'
      | 'f' -> p.pos <- p.pos + 1; Buffer.add_char buf '\012'
      | 'u' ->
          p.pos <- p.pos + 1;
          let code = hex4 p in
          let code =
            if
              code >= 0xD800 && code <= 0xDBFF
              && p.pos + 2 <= p.len
              && String.unsafe_get p.src p.pos = '\\'
              && String.unsafe_get p.src (p.pos + 1) = 'u'
            then begin
              p.pos <- p.pos + 2;
              let low = hex4 p in
              if low < 0xDC00 || low > 0xDFFF then
                error p "high surrogate not followed by a low surrogate";
              0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
            end
            else code
          in
          utf8_of_code buf code
      | c -> error p "invalid escape \\%C" c);
      escaped_string p buf
  | c ->
      p.pos <- p.pos + 1;
      Buffer.add_char buf c;
      escaped_string p buf

(* Where the escape-free run of a string body starting at [i] ends: the
   first quote or backslash, or the end of input. *)
let plain_end p i =
  let s = p.src and n = p.len in
  let i = ref i in
  while
    !i < n
    && match String.unsafe_get s !i with '"' | '\\' -> false | _ -> true
  do
    incr i
  done;
  !i

(* A string without escapes, the common case, is one [String.sub] of the
   input; the first backslash hands over to [escaped_string]. *)
let string p =
  expect p '"';
  let start = p.pos in
  let i = plain_end p start in
  if i >= p.len then begin
    p.pos <- p.len;
    error p "unterminated string"
  end
  else if String.unsafe_get p.src i = '"' then begin
    p.pos <- i + 1;
    String.sub p.src start (i - start)
  end
  else begin
    let buf = Buffer.create (i - start + 16) in
    Buffer.add_substring buf p.src start (i - start);
    p.pos <- i;
    escaped_string p buf
  end

let rec index_of words text i =
  if i >= Array.length words then -1
  else if String.equal words.(i) text then i
  else index_of words text (i + 1)

(* A key without escapes is compared in place, so matching it allocates
   nothing; any other goes through [string], which also reports its
   errors at the offsets [fields] would. *)
let key p words =
  skip_ws p;
  expect p '"';
  let start = p.pos in
  let i = plain_end p start in
  let k =
    if i < p.len && String.unsafe_get p.src i = '"' then begin
      p.pos <- i + 1;
      let len = i - start and k = ref (-1) and w = ref 0 in
      while !k < 0 && !w < Array.length words do
        let word = Array.unsafe_get words !w in
        if String.length word = len then begin
          let j = ref 0 in
          while
            !j < len
            && String.unsafe_get p.src (start + !j) = String.unsafe_get word !j
          do
            incr j
          done;
          if !j = len then k := !w
        end;
        incr w
      done;
      !k
    end
    else begin
      p.pos <- start - 1;
      index_of words (string p) 0
    end
  in
  skip_ws p;
  expect p ':';
  k

let digits p =
  while match peek p with '0' .. '9' -> true | _ -> false do
    p.pos <- p.pos + 1
  done

(* An optional minus and up to 18 digits with no fraction or exponent
   cannot overflow an OCaml int, so it is read in place. [min_int] has 19
   digits, so it can stand for "not such a token": the cursor is then
   left where it was. *)
let not_small = min_int

let small_int p =
  let s = p.src and n = p.len in
  let neg = p.pos < n && String.unsafe_get s p.pos = '-' in
  let first = if neg then p.pos + 1 else p.pos in
  let i = ref first and v = ref 0 in
  (* past 18 digits [v] wraps, but it is then not returned *)
  while
    !i < n && match String.unsafe_get s !i with '0' .. '9' -> true | _ -> false
  do
    v := (!v * 10) + (Char.code (String.unsafe_get s !i) - Char.code '0');
    incr i
  done;
  let count = !i - first in
  if
    count >= 1 && count <= 18
    && not
         (!i < n
         && match String.unsafe_get s !i with
            | '.' | 'e' | 'E' -> true
            | _ -> false)
  then begin
    p.pos <- !i;
    if neg then - !v else !v
  end
  else not_small

(* Every other number (floats, longer integers, a bare minus) goes
   through its text, as [int_of_string_opt] then [float_of_string_opt]
   see it. *)
let big_number p =
  let start = p.pos in
  if peek p = '-' then p.pos <- p.pos + 1;
  digits p;
  let fractional = match peek p with '.' | 'e' | 'E' -> true | _ -> false in
  if peek p = '.' then begin
    p.pos <- p.pos + 1;
    digits p
  end;
  (match peek p with
  | 'e' | 'E' ->
      p.pos <- p.pos + 1;
      (match peek p with '+' | '-' -> p.pos <- p.pos + 1 | _ -> ());
      digits p
  | _ -> ());
  let text = String.sub p.src start (p.pos - start) in
  if fractional then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> error p "invalid number %S" text
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
        (* out of int range: fall back to float *)
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> error p "invalid number %S" text)

let number p =
  let v = small_int p in
  if v <> not_small then Int v else big_number p

let[@inline] next_value p =
  skip_ws p;
  if p.pos >= p.len then error p "unexpected end of input";
  String.unsafe_get p.src p.pos

(* Containers count their depth on entry, so nesting is bounded before
   the recursion that would overflow the stack. An empty container is
   read whole and left at once. *)
let[@inline] enter p close =
  if p.depth >= max_depth then error p "nesting deeper than %d" max_depth;
  p.depth <- p.depth + 1;
  p.pos <- p.pos + 1;
  skip_ws p;
  if peek p = close then begin
    p.pos <- p.pos + 1;
    p.depth <- p.depth - 1;
    false
  end
  else true

let[@inline] open_object p = enter p '}'
let[@inline] open_array p = enter p ']'

let[@inline] next p close msg =
  skip_ws p;
  let c = peek p in
  if c = ',' then begin
    p.pos <- p.pos + 1;
    true
  end
  else if c = close then begin
    p.pos <- p.pos + 1;
    p.depth <- p.depth - 1;
    false
  end
  else raise (fail p msg)

let[@inline] next_field p = next p '}' "expected ',' or '}' in object"
let[@inline] next_item p = next p ']' "expected ',' or ']' in array"

(* [fields] and [items] build their lists front to back: with
   [tail_mod_cons] each cell is allocated before its tail is parsed, so
   there is no accumulator to reverse and the stack stays flat however
   long the list. *)
let rec value p =
  match next_value p with
  | '{' -> if open_object p then Obj (fields p) else Obj []
  | '[' -> if open_array p then List (items p) else List []
  | '"' -> String (string p)
  | 't' -> literal p "true" (Bool true)
  | 'f' -> literal p "false" (Bool false)
  | 'n' -> literal p "null" Null
  | '-' | '0' .. '9' -> number p
  | c -> error p "unexpected character %C" c

and[@tail_mod_cons] fields p =
  skip_ws p;
  let k = string p in
  skip_ws p;
  expect p ':';
  let v = value p in
  if next_field p then (k, v) :: fields p else [ (k, v) ]

and[@tail_mod_cons] items p =
  let v = value p in
  if next_item p then v :: items p else [ v ]

(* [value] without the value: the same reads and errors, nothing built
   but the text of a number past 18 digits or of a string with escapes. *)
let rec skip p =
  match next_value p with
  | '{' -> if open_object p then skip_fields p
  | '[' -> if open_array p then skip_items p
  | '"' ->
      let i = plain_end p (p.pos + 1) in
      if i < p.len && String.unsafe_get p.src i = '"' then p.pos <- i + 1
      else ignore (string p)
  | '-' | '0' .. '9' -> if small_int p = not_small then ignore (big_number p)
  | 't' -> literal p "true" ()
  | 'f' -> literal p "false" ()
  | 'n' -> literal p "null" ()
  | c -> error p "unexpected character %C" c

and skip_fields p =
  ignore (key p [||]);
  skip p;
  if next_field p then skip_fields p

and skip_items p =
  skip p;
  if next_item p then skip_items p

type ints = { mutable data : int array; mutable size : int }

let[@inline] push b x =
  if b.size = Array.length b.data then begin
    let a = Array.make ((2 * b.size) + 1) 0 in
    Array.blit b.data 0 a 0 b.size;
    b.data <- a
  end;
  Array.unsafe_set b.data b.size x;
  b.size <- b.size + 1

type int_list = All_ints | Not_all_ints | Not_a_list

(* One call reads a whole row, so a walker in another module pays one
   call per list, not several per item. *)
let ints p b =
  if next_value p <> '[' then begin
    skip p;
    Not_a_list
  end
  else if not (open_array p) then All_ints
  else begin
    let all = ref true and more = ref true in
    while !more do
      (match next_value p with
      | '-' | '0' .. '9' -> (
          let v = small_int p in
          if v <> not_small then push b v
          else match big_number p with Int i -> push b i | _ -> all := false)
      | _ ->
          skip p;
          all := false);
      more := next_item p
    done;
    if !all then All_ints else Not_all_ints
  end

let string_fields p words out =
  if next_value p <> '{' then begin
    skip p;
    -1
  end
  else begin
    let seen = ref 0 and strings = ref 0 in
    if open_object p then begin
      let more = ref true in
      while !more do
        let k = key p words in
        if k < 0 || !seen land (1 lsl k) <> 0 then skip p
        else begin
          seen := !seen lor (1 lsl k);
          if next_value p <> '"' then skip p
          else begin
            out.(k) <- string p;
            strings := !strings lor (1 lsl k)
          end
        end;
        more := next_field p
      done
    end;
    !strings
  end

let finish p =
  skip_ws p;
  if p.pos <> p.len then error p "trailing garbage after value"

let parse s =
  let p = cursor s in
  match
    let v = value p in
    finish p;
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* --- Accessors --------------------------------------------------------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_list_opt = function List xs -> Some xs | _ -> None
let to_string_opt = function String s -> Some s | _ -> None
let to_int_opt = function Int i -> Some i | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None
