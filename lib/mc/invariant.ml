type outcome = {
  stats : Cts.Service.stats array;
  verdicts : Obs.Check.verdict list;
  packet_log : string;
}

let check_all o = o.verdicts
