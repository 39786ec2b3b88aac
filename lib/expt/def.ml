type scale = Quick | Full

type ctx = {
  scale : scale;
  base_seed : int;
  jobs : int;
  journal : Supervise.shared option;
  queue : Ftc_sim.Queue_model.config option;
  fast_engine : bool;
      (* Add F1/F2's extended decades up to n = 10^6 at full scale. *)
}

type t = { id : string; title : string; paper : string; run : ctx -> string }

let trials ctx ~quick ~full = match ctx.scale with Quick -> quick | Full -> full

let section id title body =
  let header = Printf.sprintf "== %s: %s ==" id title in
  let bar = String.make (String.length header) '=' in
  String.concat "\n" [ bar; header; bar; body; "" ]
