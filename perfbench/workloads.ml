let all : (module Suite.S) list =
  [ (module Spec_exec); (module Brop_attack); (module Web_load) ]

let find name = List.find_opt (fun (module W : Suite.S) -> String.equal W.name name) all
let names = List.map (fun (module W : Suite.S) -> W.name) all
