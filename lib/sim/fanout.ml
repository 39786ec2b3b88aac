let broadcast (send : _ Protocol.send) ~n ~ports payload =
  for p = ports - 1 downto 0 do
    send.port p payload
  done;
  for _ = 1 to n - 1 - ports do
    send.fresh payload
  done

let rec to_ports_rev (send : _ Protocol.send) ports payload =
  match ports with
  | [] -> ()
  | p :: earlier ->
      to_ports_rev send earlier payload;
      send.port p payload
