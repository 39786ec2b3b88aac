type role = Candidate | Referee | Bystander | Coordinator

type t = { role : role; rank : int option; has_decided : bool }

let unranked =
  let pair role = ({ role; rank = None; has_decided = false }, { role; rank = None; has_decided = true }) in
  let candidate = pair Candidate and referee = pair Referee and bystander = pair Bystander in
  let coordinator = pair Coordinator in
  fun role ~has_decided ->
    let undecided, decided =
      match role with
      | Candidate -> candidate
      | Referee -> referee
      | Bystander -> bystander
      | Coordinator -> coordinator
    in
    if has_decided then decided else undecided

let bystander = unranked Bystander ~has_decided:false

let role_to_string = function
  | Candidate -> "candidate"
  | Referee -> "referee"
  | Bystander -> "bystander"
  | Coordinator -> "coordinator"

let pp ppf t =
  Format.fprintf ppf "{role=%s; rank=%s; decided=%b}" (role_to_string t.role)
    (match t.rank with None -> "-" | Some r -> string_of_int r)
    t.has_decided
