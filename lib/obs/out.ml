let rec nat b n =
  if n >= 10 then nat b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

let int b n =
  if n >= 0 then nat b n
  else if n = min_int then Buffer.add_string b (string_of_int n)
  else begin
    Buffer.add_char b '-';
    nat b (-n)
  end

(* Probe names are static strings without specials, but process names
   and span names come from callers; escape defensively anyway. *)
let json_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let spill oc b =
  if Buffer.length b >= 65_536 then begin
    Buffer.output_buffer oc b;
    Buffer.clear b
  end
