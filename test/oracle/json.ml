(* The recursive-descent parser that [Obs.Json.parse]'s one-pass parser
   replaced, kept whole as its differential oracle: on every input the
   library parser must give the same value or the same error text.
   Nesting past [Obs.Json.max_depth] is the one exception: this parser
   recurses once per level, with no bound, so callers must not hand it
   inputs the library rejects for depth. *)

open Obs.Json

exception Parse_error of string

let parse_exn s =
  let n = String.length s in
  let pos = ref 0 in
  let error fmt =
    Printf.ksprintf (fun msg ->
        raise (Parse_error (Printf.sprintf "at offset %d: %s" !pos msg)))
      fmt
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> error "expected %C, found %C" c c'
    | None -> error "expected %C, found end of input" c
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else error "invalid literal"
  in
  let utf8_of_code buf code =
    (* encode one scalar value; JSON surrogate pairs are handled by the
       caller before this point *)
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
  in
  let hex4 () =
    if !pos + 4 > n then error "truncated \\u escape";
    let v = ref 0 in
    for i = !pos to !pos + 3 do
      let d =
        match s.[i] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | c -> error "invalid hex digit %C in \\u escape" c
      in
      v := (!v lsl 4) lor d
    done;
    pos := !pos + 4;
    !v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then error "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (if !pos >= n then error "truncated escape";
           match s.[!pos] with
           | '"' -> advance (); Buffer.add_char buf '"'
           | '\\' -> advance (); Buffer.add_char buf '\\'
           | '/' -> advance (); Buffer.add_char buf '/'
           | 'n' -> advance (); Buffer.add_char buf '\n'
           | 'r' -> advance (); Buffer.add_char buf '\r'
           | 't' -> advance (); Buffer.add_char buf '\t'
           | 'b' -> advance (); Buffer.add_char buf '\b'
           | 'f' -> advance (); Buffer.add_char buf '\012'
           | 'u' ->
               advance ();
               let code = hex4 () in
               let code =
                 if code >= 0xD800 && code <= 0xDBFF
                    && !pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
                 then begin
                   pos := !pos + 2;
                   let low = hex4 () in
                   if low < 0xDC00 || low > 0xDFFF then
                     error "high surrogate not followed by a low surrogate";
                   0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
                 end
                 else code
               in
               utf8_of_code buf code
           | c -> error "invalid escape \\%C" c);
          go ()
      | c ->
          advance ();
          Buffer.add_char buf c;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    if peek () = Some '-' then advance ();
    let digits () =
      while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
        advance ()
      done
    in
    digits ();
    if peek () = Some '.' then begin
      is_float := true;
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        is_float := true;
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    let text = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> error "invalid number %S" text
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
          (* out of int range: fall back to float *)
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> error "invalid number %S" text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> error "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields ((k, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> error "expected ',' or '}' in object"
          in
          Obj (fields [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> error "expected ',' or ']' in array"
          in
          List (items [])
        end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> error "unexpected character %C" c
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then error "trailing garbage after value";
  v

let parse s =
  match parse_exn s with
  | v -> Ok v
  | exception Parse_error msg -> Error msg
