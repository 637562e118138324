type totals = { mutable seconds : float; mutable words : float }

type t = {
  layers : (string, totals) Hashtbl.t;
  counts : (string, int) Hashtbl.t;
}

let create () = { layers = Hashtbl.create 32; counts = Hashtbl.create 32 }

let totals t name =
  match Hashtbl.find_opt t.layers name with
  | Some x -> x
  | None ->
      let x = { seconds = 0.0; words = 0.0 } in
      Hashtbl.replace t.layers name x;
      x

let layer t name f =
  let tot = totals t name in
  let w0 = Gc.minor_words () and t0 = Shell_util.Clock.now () in
  let finish () =
    tot.seconds <- tot.seconds +. (Shell_util.Clock.now () -. t0);
    tot.words <- tot.words +. (Gc.minor_words () -. w0)
  in
  Fun.protect ~finally:finish f

let count t name n =
  Hashtbl.replace t.counts name
    (n + Option.value ~default:0 (Hashtbl.find_opt t.counts name))

let seconds t name =
  match Hashtbl.find_opt t.layers name with Some x -> x.seconds | None -> 0.0

let mwords t name =
  match Hashtbl.find_opt t.layers name with
  | Some x -> x.words /. 1e6
  | None -> 0.0

let counted t name = Option.value ~default:0 (Hashtbl.find_opt t.counts name)
