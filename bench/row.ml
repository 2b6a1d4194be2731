(* A bench section's rows, declared once.  Each field gives its JSON
   member and, when the section's table shows it, the column's heading
   and printf cell; the table header, the printed rows, the committed
   BENCH_*.json and the section's checks all read that one declaration. *)

type 'r field = {
  json : 'r -> string list; (* rendered "key": value members; [] = table only *)
  col : (string * ('r -> string)) option; (* padded heading, cell *)
}

(* JSON members: the repository carries no JSON library, and the rows
   are flat. *)
let member enc key v = Printf.sprintf "%S: %s" key (enc v)
let jint = member string_of_int
let jfloat = member (Printf.sprintf "%.4f")
let jstr = member (Printf.sprintf "%S")

(* The printed width of a one-conversion cell format, negative when left
   aligned: the conversion's width plus any literal suffix, so "%5.1fms"
   is 7 and "%-22s" is -22. *)
let width fmt =
  let s = string_of_format fmt in
  let left = s.[1] = '-' in
  let i = ref (if left then 2 else 1) in
  let number () =
    let j = !i in
    while !i < String.length s && s.[!i] >= '0' && s.[!i] <= '9' do incr i done;
    if !i > j then int_of_string (String.sub s j (!i - j)) else 0
  in
  let w = number () in
  if s.[!i] = '.' then (incr i; ignore (number ()));
  let suffix = String.sub s (!i + 1) (String.length s - !i - 1) in
  let escapes = List.length (String.split_on_char '%' suffix) - 1 in
  let w = w + String.length suffix - (escapes / 2) in
  if left then -w else w

let pad w head = if w < 0 then Printf.sprintf "%-*s" (-w) head else Printf.sprintf "%*s" w head

(* A table-only column [w] wide (negative: left aligned). *)
let cell w head f = { json = (fun _ -> []); col = Some (pad w head, f) }

(* A table-only column printing one value through [fmt]. *)
let show fmt head get = cell (width fmt) head (fun r -> Printf.sprintf fmt (get r))

(* A JSON member [key], shown as a column when [t] = (cell format, heading). *)
let field member ?t key get =
  { json = (fun r -> [ member key (get r) ]);
    col =
      Option.map
        (fun (fmt, head) -> pad (width fmt) head, fun r -> Printf.sprintf fmt (get r))
        t }

let int ?t key get = field jint ?t key get
let float ?t key get = field jfloat ?t key get
let str ?t key get = field jstr ?t key get

let on_off b = if b then "on" else "off"

(* ---- the table ---- *)

let line cells = Printf.printf "%s\n%!" (String.concat " " cells)
let header fields = line (List.filter_map (fun f -> Option.map fst f.col) fields)

let print fields r =
  line (List.filter_map (fun f -> Option.map (fun (_, c) -> c r) f.col) fields)

(* ---- checks: a gate over a section's rows, failing with its message ---- *)

let check msg holds rows = if not (holds rows) then failwith msg
let each msg ok = check msg (List.for_all ok)

(* Print [r] as a table row and run the per-row [checks] on it. *)
let row ?(checks = []) fields r =
  print fields r;
  List.iter (fun c -> c [ r ]) checks;
  r

(* The header, then a row per point of [xs], computed in order. *)
let table ?checks fields f xs =
  header fields;
  List.map (fun x -> row ?checks fields (f x)) xs

(* The cartesian product, in row-major order: [a *** b *** c] pairs as
   (a, (b, c)). *)
let ( *** ) xs ys = List.concat_map (fun x -> List.map (fun y -> x, y) ys) xs

(* ---- the committed JSON ---- *)

let obj fields r = "{" ^ String.concat ", " (List.concat_map (fun f -> f.json r) fields) ^ "}"
let objs fields rows = List.map (obj fields) rows

let write_json file meta rows =
  let oc = open_out file in
  output_string oc "{\n";
  List.iter (fun m -> output_string oc ("  " ^ m ^ ",\n")) meta;
  output_string oc "  \"rows\": [\n";
  output_string oc (String.concat ",\n" (List.map (fun r -> "    " ^ r) rows));
  output_string oc "\n  ]\n}\n";
  close_out oc;
  Printf.printf "(wrote %s)\n%!" file
