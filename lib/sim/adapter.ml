(* Any {!Protocol.S} as a codec protocol, so one struct-of-arrays engine
   runs every protocol.

   Per-node states live in an array and each node gets the context the
   protocol model promises (its own coin, input, and identifier under
   KT1). Payloads stay OCaml values: each send stores its payload in a
   side table and travels through the engine as two words, the bit cost
   (computed at emit time, so [msg_bits] just reads it back) and the
   payload's slot in the sender round's table. Two tables alternate:
   round [r] reads the table round [r - 1] filled while it fills the
   other. The inbox handed to [P.step] is rebuilt in arrival order with
   the receiver-side port and the ECN mark, so wrappers that react to
   congestion (the transport) run unchanged.

   A node is woken for the next round unless the protocol promises
   that stepping it on an empty inbox would change nothing
   ({!Protocol.S.idle}); a delivery wakes it regardless. After each
   step the adapter refreshes the node's entry in the engine's
   observation cache and reports decision transitions in both
   directions, which is all the engine needs for adversary views and
   quiescence. *)

module Make (P : Protocol.S) : Fast_protocol.S = struct
  let name = P.name
  let knowledge = P.knowledge
  let words = 2
  let msg_bits ~n:_ bits = bits
  let max_rounds = P.max_rounds
  let phases = P.phases

  type t = {
    n : int;
    ctxs : Protocol.ctx array;
    states : P.state array;
    undecided : Bytes.t;  (* '\001' where [P.decide] is [Undecided] *)
    rt : Fast_protocol.runtime;
    mutable round : int;  (* the round [sent] is being filled for *)
    mutable sent : P.msg array;
    mutable sent_len : int;
    mutable recv : P.msg array;  (* payloads sent last round *)
  }

  let is_undecided st = P.decide st = Decision.Undecided

  let create ~n ~alpha ~inputs ~node_rngs rt =
    let ctxs =
      Array.init n (fun i ->
          {
            Protocol.n;
            alpha;
            input = inputs.(i);
            rng = node_rngs.(i);
            self = (match P.knowledge with `KT1 -> Some i | `KT0 -> None);
          })
    in
    let states = Array.map P.init ctxs in
    let undecided = Bytes.make n '\000' in
    Array.iteri
      (fun i st ->
        rt.Fast_protocol.obs.(i) <- P.observe st;
        if is_undecided st then Bytes.set undecided i '\001';
        if not (P.idle ctxs.(i) st ~round:0) then rt.Fast_protocol.wake i)
      states;
    { n; ctxs; states; undecided; rt; round = 0; sent = [||]; sent_len = 0; recv = [||] }

  (* Grow by appending the table to itself: [Array.make] with a
     freshly allocated payload as the fill value would force a minor
     collection for every table past 256 words. *)
  let store t payload =
    let i = t.sent_len in
    if i = Array.length t.sent then
      t.sent <- (if i = 0 then [| payload |] else Array.append t.sent t.sent);
    t.sent.(i) <- payload;
    t.sent_len <- i + 1;
    i

  let step t ~node:i ~round ~inbox_start ~inbox_count =
    let rt = t.rt in
    if round <> t.round then begin
      let recv = t.recv in
      t.recv <- t.sent;
      t.sent <- recv;
      t.sent_len <- 0;
      t.round <- round
    end;
    let iw = rt.Fast_protocol.inbox_words
    and ip = rt.Fast_protocol.inbox_port
    and ie = rt.Fast_protocol.inbox_ecn in
    let inbox = ref [] in
    for m = inbox_start + inbox_count - 1 downto inbox_start do
      inbox :=
        {
          Protocol.from_port = ip.(m);
          payload = t.recv.(iw.{(2 * m) + 1});
          ecn = Bytes.get ie m <> '\000';
        }
        :: !inbox
    done;
    let st, actions = P.step t.ctxs.(i) t.states.(i) ~round ~inbox:!inbox in
    t.states.(i) <- st;
    List.iter
      (fun { Protocol.dest; payload } ->
        let bits = P.msg_bits ~n:t.n payload in
        let slot = store t payload in
        match dest with
        | Protocol.Fresh_port -> rt.Fast_protocol.emit_fresh bits slot 0
        | Protocol.Port p -> rt.Fast_protocol.emit_port p bits slot 0
        | Protocol.Node d -> rt.Fast_protocol.emit_node d bits slot 0)
      actions;
    rt.Fast_protocol.obs.(i) <- P.observe st;
    let undecided = is_undecided st in
    if undecided <> (Bytes.get t.undecided i <> '\000') then begin
      Bytes.set t.undecided i (if undecided then '\001' else '\000');
      if undecided then rt.Fast_protocol.note_undecided i else rt.Fast_protocol.note_decided i
    end;
    if not (P.idle t.ctxs.(i) st ~round:(round + 1)) then rt.Fast_protocol.wake i

  let decide t i = P.decide t.states.(i)
  let observe t i = P.observe t.states.(i)
end
