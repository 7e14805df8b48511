exception No_context

(* The binding is not stored anywhere: [with_context] answers this effect
   for the code it runs, so nesting, restoring on exit and surviving a
   suspension all follow from handler scope (a suspended fiber's captured
   continuation carries its handlers). *)
type _ Effect.t += Context : (Service.t * Thread_id.t) Effect.t

let with_context service ~thread f =
  let binding = (service, thread) in
  Effect.Deep.try_with f ()
    {
      effc =
        (fun (type b) (eff : b Effect.t) ->
          match eff with
          | Context ->
              Some
                (fun (k : (b, _) Effect.Deep.continuation) ->
                  Effect.Deep.continue k binding)
          | _ -> None);
    }

let context () =
  match Effect.perform Context with
  | binding -> Some binding
  | exception Effect.Unhandled _ -> None

let call kind =
  match context () with
  | Some (service, thread) -> Service.clock_read service ~thread ~call:kind
  | None -> raise No_context

let gettimeofday () = call Call_type.Gettimeofday
let time () = call Call_type.Time
let ftime () = call Call_type.Ftime
