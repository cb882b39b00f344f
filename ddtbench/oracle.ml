(* Recorded per-workload bug-key sets and reachable-block coverage of
   every session, from [ddtbench.exe --record-oracle]. A session whose
   dynamic bug keys differ from its row fails. *)

type expect = { bugs : string list; covered : int; reachable : int }

let table : ((string * string) * expect) list =
  [
    (("corpus", "ac97"),
     { covered = 109; reachable = 123;
       bugs = ["crash:Intel 82801AA AC97:DRIVER_FAULT:0x400248"] });
    (("corpus", "audiopci"),
     { covered = 92; reachable = 113;
       bugs = ["crash:Ensoniq AudioPCI:DRIVER_FAULT:0x4001c8";
               "crash:Ensoniq AudioPCI:DRIVER_FAULT:0x400260";
               "crash:Ensoniq AudioPCI:DRIVER_FAULT:0x400380";
               "crash:Ensoniq AudioPCI:DRIVER_FAULT:0x400860"] });
    (("corpus", "deeploop"),
     { covered = 43; reachable = 43;
       bugs = ["crash:Deep-loop poller:DRIVER_FAULT:0x400518"] });
    (("corpus", "pcnet"),
     { covered = 88; reachable = 105;
       bugs = ["leak:AMD PCNet:halt";
               "leak:AMD PCNet:initialize"] });
    (("corpus", "pro100"),
     { covered = 128; reachable = 147;
       bugs = ["lock:Intel Pro/100 (DDK):wrongrel:0x800008"] });
    (("corpus", "pro1000"),
     { covered = 153; reachable = 174;
       bugs = ["leak:Intel Pro/1000:initialize"] });
    (("corpus", "rtl8029"),
     { covered = 74; reachable = 87;
       bugs = ["crash:RTL8029:BAD_TIMER_OBJECT:0x4001a8";
               "crash:RTL8029:DRIVER_FAULT:0x400a78";
               "crash:RTL8029:DRIVER_FAULT:0x400d28";
               "leak:RTL8029:initialize";
               "mem:RTL8029:0x400608:w"] });
    (("small", "ac97"),
     { covered = 109; reachable = 123;
       bugs = ["crash:Intel 82801AA AC97:DRIVER_FAULT:0x400248"] });
    (("small", "ac97-fixed"),
     { covered = 112; reachable = 126;
       bugs = [] });
    (("small", "audiopci"),
     { covered = 92; reachable = 113;
       bugs = ["crash:Ensoniq AudioPCI:DRIVER_FAULT:0x4001c8";
               "crash:Ensoniq AudioPCI:DRIVER_FAULT:0x400260";
               "crash:Ensoniq AudioPCI:DRIVER_FAULT:0x400380";
               "crash:Ensoniq AudioPCI:DRIVER_FAULT:0x400860"] });
    (("small", "audiopci-fixed"),
     { covered = 104; reachable = 121;
       bugs = [] });
    (("small", "pcnet"),
     { covered = 88; reachable = 105;
       bugs = ["leak:AMD PCNet:halt";
               "leak:AMD PCNet:initialize"] });
    (("small", "pcnet-fixed"),
     { covered = 106; reachable = 119;
       bugs = [] });
    (("small", "rtl8029"),
     { covered = 74; reachable = 87;
       bugs = ["crash:RTL8029:BAD_TIMER_OBJECT:0x4001a8";
               "crash:RTL8029:DRIVER_FAULT:0x400a78";
               "crash:RTL8029:DRIVER_FAULT:0x400d28";
               "leak:RTL8029:initialize";
               "mem:RTL8029:0x400608:w"] });
    (("small", "rtl8029-fixed"),
     { covered = 79; reachable = 92;
       bugs = [] });
    (("serve", "ac97"),
     { covered = 109; reachable = 123;
       bugs = ["crash:Intel 82801AA AC97:DRIVER_FAULT:0x400248"] });
    (("serve", "audiopci"),
     { covered = 92; reachable = 113;
       bugs = ["crash:Ensoniq AudioPCI:DRIVER_FAULT:0x4001c8";
               "crash:Ensoniq AudioPCI:DRIVER_FAULT:0x400260";
               "crash:Ensoniq AudioPCI:DRIVER_FAULT:0x400380";
               "crash:Ensoniq AudioPCI:DRIVER_FAULT:0x400860"] });
    (("serve", "deeploop"),
     { covered = 43; reachable = 43;
       bugs = ["crash:Deep-loop poller:DRIVER_FAULT:0x400518"] });
    (("serve", "pcnet"),
     { covered = 88; reachable = 105;
       bugs = ["leak:AMD PCNet:halt";
               "leak:AMD PCNet:initialize"] });
    (("serve", "pro100"),
     { covered = 128; reachable = 147;
       bugs = ["lock:Intel Pro/100 (DDK):wrongrel:0x800008"] });
    (("serve", "pro1000"),
     { covered = 153; reachable = 174;
       bugs = ["leak:Intel Pro/1000:initialize"] });
    (("serve", "rtl8029"),
     { covered = 74; reachable = 87;
       bugs = ["crash:RTL8029:BAD_TIMER_OBJECT:0x4001a8";
               "crash:RTL8029:DRIVER_FAULT:0x400a78";
               "crash:RTL8029:DRIVER_FAULT:0x400d28";
               "leak:RTL8029:initialize";
               "mem:RTL8029:0x400608:w"] });
  ]
