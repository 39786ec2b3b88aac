(** Broadcast helper for KT0 protocols.

    Reaching all [n - 1] neighbours from an anonymous node means sending
    through every already-known port plus a fresh port for each remaining
    unknown peer. Ports open consecutively from 0, so a node that has
    seen every delivery knows exactly the ports [0 .. ports - 1]; the
    engine never wires a fresh port to an already-known peer, so the
    coverage is exact and duplicate-free. *)

val broadcast : 'm Protocol.send -> n:int -> ports:int -> 'm -> unit
(** [broadcast send ~n ~ports payload] sends [payload] to every other
    node exactly once: through ports [ports - 1] down to [0], then
    through [n - 1 - ports] fresh ports. *)

val to_ports_rev : 'm Protocol.send -> int list -> 'm -> unit
(** [to_ports_rev send ports payload] sends [payload] through each port
    of [ports], last element first: arrival order for a list built by
    consing each port as it arrives. *)
