(* Any {!Protocol.S} as a codec protocol, so one struct-of-arrays engine
   runs every protocol.

   Per-node states live in an array and each node gets the context the
   protocol model promises (its own coin, input, and identifier under
   KT1). Payloads stay OCaml values: each send stores its payload in a
   side table and travels through the engine as two words, the bit cost
   (computed at emit time, so [msg_bits] just reads it back) and the
   payload's slot in the sender round's table. Two tables alternate:
   round [r] reads the table round [r - 1] filled while it fills the
   other. One inbox view, built at [create], reads the engine's inbox
   arrays in place (receiver-side port, payload slot, ECN mark), and one
   send record forwards each send to the engine as the step makes it,
   so a step costs no allocation beyond what the protocol itself does.

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

  (* Payload tables: [recv] holds what the previous round sent. *)
  type tables = {
    mutable round : int;  (* the round [sent] is being filled for *)
    mutable sent : P.msg array;
    mutable sent_len : int;
    mutable recv : P.msg array;
  }

  type t = {
    ctxs : Protocol.ctx array;
    states : P.state array;
    undecided : Bytes.t;  (* '\001' where [P.decide] is [Undecided] *)
    rt : Fast_protocol.runtime;
    tables : tables;
    inbox : P.msg Protocol.inbox;
    send : P.msg Protocol.send;
  }

  let is_undecided st = match P.decide st with Decision.Undecided -> true | _ -> false

  (* Grow by appending the table to itself: [Array.make] with a
     freshly allocated payload as the fill value would force a minor
     collection for every table past 256 words. *)
  let store tb payload =
    let i = tb.sent_len in
    if i = Array.length tb.sent then
      tb.sent <- (if i = 0 then [| payload |] else Array.append tb.sent tb.sent);
    tb.sent.(i) <- payload;
    tb.sent_len <- i + 1;
    i

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
    let tables = { round = 0; sent = [||]; sent_len = 0; recv = [||] } in
    let inbox =
      Protocol.Inbox.window
        ~port:(fun m -> rt.Fast_protocol.inbox_port.(m))
        ~payload:(fun m -> tables.recv.(rt.Fast_protocol.inbox_words.{(2 * m) + 1}))
        ~ecn:(fun m -> Bytes.get rt.Fast_protocol.inbox_ecn m <> '\000')
    in
    let send =
      {
        Protocol.fresh =
          (fun m ->
            let bits = P.msg_bits ~n m in
            rt.Fast_protocol.emit_fresh bits (store tables m) 0);
        port =
          (fun p m ->
            let bits = P.msg_bits ~n m in
            rt.Fast_protocol.emit_port p bits (store tables m) 0);
        node =
          (fun d m ->
            let bits = P.msg_bits ~n m in
            rt.Fast_protocol.emit_node d bits (store tables m) 0);
      }
    in
    { ctxs; states; undecided; rt; tables; inbox; send }

  let step t ~node:i ~round ~inbox_start ~inbox_count =
    let rt = t.rt and tb = t.tables in
    if round <> tb.round then begin
      let recv = tb.recv in
      tb.recv <- tb.sent;
      tb.sent <- recv;
      tb.sent_len <- 0;
      tb.round <- round
    end;
    Protocol.Inbox.set_window t.inbox ~first:inbox_start ~length:inbox_count;
    let st = P.step t.ctxs.(i) t.states.(i) ~round ~inbox:t.inbox ~send:t.send in
    t.states.(i) <- st;
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
