module Trace = Ftc_sim.Trace
module ISet = Set.Make (Int)

type cloud = { initiator : int; members : int list }

type t = { initiators : int list; clouds : cloud list; edges : (int * int) list }

let of_trace ~n trace =
  let has_received = Array.make n false in
  let has_sent = Array.make n false in
  let initiators = ref [] in
  (* cloud_members.(i) is meaningful only when i is an initiator. *)
  let member_sets = Hashtbl.create 8 in
  let member_orders = Hashtbl.create 8 in
  let edge_set = Hashtbl.create 64 in
  let edges = ref [] in
  Trace.iter
    (fun event ->
      match event with
      | Trace.Crash _ | Trace.Link_lost _ | Trace.Queue_dropped _ | Trace.Ecn_marked _
      | Trace.Unroutable _ -> ()
      | Trace.Send { src; dst; delivered; _ } ->
          if (not has_sent.(src)) && not has_received.(src) then begin
            (* First action of src is a send: src is an initiator and
               seeds its own cloud. *)
            initiators := src :: !initiators;
            Hashtbl.replace member_sets src (ref (ISet.singleton src));
            Hashtbl.replace member_orders src (ref [ src ])
          end;
          has_sent.(src) <- true;
          if delivered then begin
            if not (Hashtbl.mem edge_set (src, dst)) then begin
              Hashtbl.replace edge_set (src, dst) ();
              edges := (src, dst) :: !edges
            end;
            has_received.(dst) <- true;
            (* dst joins every cloud src already belongs to. *)
            Hashtbl.iter
              (fun _init set ->
                if ISet.mem src !set && not (ISet.mem dst !set) then begin
                  set := ISet.add dst !set;
                  let order = Hashtbl.find member_orders _init in
                  order := dst :: !order
                end)
              member_sets
          end)
    trace;
  let initiators = List.rev !initiators in
  let clouds =
    List.map
      (fun init -> { initiator = init; members = List.rev !(Hashtbl.find member_orders init) })
      initiators
  in
  { initiators; clouds; edges = List.rev !edges }

let clouds_disjoint a b =
  let sa = ISet.of_list a.members in
  not (List.exists (fun m -> ISet.mem m sa) b.members)

let disjoint_cloud_count t =
  (* Greedy by increasing cloud size: take a cloud if it intersects none
     already taken. *)
  let sorted =
    List.sort (fun a b -> compare (List.length a.members) (List.length b.members)) t.clouds
  in
  let taken = ref [] and covered = ref ISet.empty in
  List.iter
    (fun c ->
      if not (List.exists (fun m -> ISet.mem m !covered) c.members) then begin
        taken := c :: !taken;
        covered := List.fold_left (fun s m -> ISet.add m s) !covered c.members
      end)
    sorted;
  List.length !taken

let deciding_clouds t ~decided =
  List.filter (fun c -> List.exists (fun m -> decided.(m)) c.members) t.clouds
