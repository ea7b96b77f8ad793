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
   no closure per container, no substring per integer. *)
type parser = { src : string; len : int; mutable pos : int; mutable depth : int }

let fail p msg = Parse_error (Printf.sprintf "at offset %d: %s" p.pos msg)
let error p fmt = Printf.ksprintf (fun msg -> raise (fail p msg)) fmt

let skip_ws p =
  let s = p.src and n = p.len in
  let i = ref p.pos in
  while
    !i < n
    && match String.unsafe_get s !i with
       | ' ' | '\t' | '\n' | '\r' -> true
       | _ -> false
  do
    incr i
  done;
  p.pos <- !i

(* The byte under the cursor, or '\000' at the end of input. Callers only
   compare it with other bytes, so the two never need telling apart. *)
let peek p = if p.pos < p.len then String.unsafe_get p.src p.pos else '\000'

let expect p c =
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

(* A string without escapes, the common case, is one [String.sub] of the
   input; the first backslash hands over to [escaped_string]. *)
let parse_string p =
  expect p '"';
  let s = p.src and n = p.len and start = p.pos in
  let i = ref start in
  while
    !i < n
    && match String.unsafe_get s !i with '"' | '\\' -> false | _ -> true
  do
    incr i
  done;
  if !i >= n then begin
    p.pos <- n;
    error p "unterminated string"
  end
  else if String.unsafe_get s !i = '"' then begin
    p.pos <- !i + 1;
    String.sub s start (!i - start)
  end
  else begin
    let buf = Buffer.create (!i - start + 16) in
    Buffer.add_substring buf s start (!i - start);
    p.pos <- !i;
    escaped_string p buf
  end

let digits p =
  while match peek p with '0' .. '9' -> true | _ -> false do
    p.pos <- p.pos + 1
  done

(* An optional minus and up to 18 digits with no fraction or exponent
   cannot overflow an OCaml int, so it is read in place. Anything else
   (floats, longer integers, a bare minus) goes through the text, as
   [int_of_string_opt] then [float_of_string_opt] see it. *)
let parse_number p =
  let start = p.pos in
  if peek p = '-' then p.pos <- p.pos + 1;
  let first = p.pos in
  digits p;
  let count = p.pos - first in
  let fractional = match peek p with '.' | 'e' | 'E' -> true | _ -> false in
  if (not fractional) && count >= 1 && count <= 18 then begin
    let v = ref 0 in
    for i = first to p.pos - 1 do
      v := (!v * 10) + (Char.code (String.unsafe_get p.src i) - Char.code '0')
    done;
    Int (if first > start then - !v else !v)
  end
  else begin
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
  end

(* Containers count their depth on entry, so nesting is bounded before
   the recursion that would overflow the stack. *)
let enter p =
  if p.depth >= max_depth then error p "nesting deeper than %d" max_depth;
  p.depth <- p.depth + 1;
  p.pos <- p.pos + 1;
  skip_ws p

(* [fields] and [items] build their lists front to back: with
   [tail_mod_cons] each cell is allocated before its tail is parsed, so
   there is no accumulator to reverse and the stack stays flat however
   long the list. *)
let rec parse_value p =
  skip_ws p;
  if p.pos >= p.len then error p "unexpected end of input";
  match String.unsafe_get p.src p.pos with
  | '{' ->
      enter p;
      let v =
        if peek p = '}' then begin
          p.pos <- p.pos + 1;
          Obj []
        end
        else Obj (fields p)
      in
      p.depth <- p.depth - 1;
      v
  | '[' ->
      enter p;
      let v =
        if peek p = ']' then begin
          p.pos <- p.pos + 1;
          List []
        end
        else List (items p)
      in
      p.depth <- p.depth - 1;
      v
  | '"' -> String (parse_string p)
  | 't' -> literal p "true" (Bool true)
  | 'f' -> literal p "false" (Bool false)
  | 'n' -> literal p "null" Null
  | '-' | '0' .. '9' -> parse_number p
  | c -> error p "unexpected character %C" c

and[@tail_mod_cons] fields p =
  skip_ws p;
  let k = parse_string p in
  skip_ws p;
  expect p ':';
  let v = parse_value p in
  skip_ws p;
  match peek p with
  | ',' ->
      p.pos <- p.pos + 1;
      (k, v) :: fields p
  | '}' ->
      p.pos <- p.pos + 1;
      [ (k, v) ]
  | _ -> raise (fail p "expected ',' or '}' in object")

and[@tail_mod_cons] items p =
  let v = parse_value p in
  skip_ws p;
  match peek p with
  | ',' ->
      p.pos <- p.pos + 1;
      v :: items p
  | ']' ->
      p.pos <- p.pos + 1;
      [ v ]
  | _ -> raise (fail p "expected ',' or ']' in array")

let document s =
  let p = { src = s; len = String.length s; pos = 0; depth = 0 } in
  let v = parse_value p in
  skip_ws p;
  if p.pos <> p.len then error p "trailing garbage after value";
  v

let parse s =
  match document s with
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
