#include "core/agent_library.h"

#include <charconv>
#include <initializer_list>
#include <string_view>

namespace agilla::core::agents {
namespace {

// Every agent is one `.macro`, after the helpers several agents share.
// Arguments replace whole tokens, so parameter names are lowercase words
// that no mnemonic, label or operand keyword spells.
constexpr std::string_view kLibrary = R"aga(
// Bootstrap of the flood-deployed agents: claim this node with a
// <marker, loc> tuple (or die at DIE2 if one is already there), arm the
// <"ctx", loc> re-flood reaction, weak-clone onto every neighbour, then
// fall through to MAIN.
.macro CLAIM_AND_FLOOD marker
BEGIN   .tuple marker, LOCATION
        rdp             // already claimed by one of us?
        rjumpc DIE2     // yes -> discard fields and die
        .tuple marker, loc
        out             // claim it
        .tuple "ctx", LOCATION  // new neighbours (incl. rebooted ones)
        pushc CTXR
        regrxn
        pushc 0
        setvar 1        // i = 0
SPREAD  getvar 1
        numnbrs
        cgt             // cond = (numnbrs > i)
        rjumpc DO
        rjump MAIN      // spread finished
DO      getvar 1
        getnbr          // neighbour i's location
        wclone          // weak clone restarts at BEGIN there
        getvar 1
        inc
        setvar 1
        rjump SPREAD
.endm
.macro FLOOD_TRAILER
DIE2    pop
        pop
        halt
// reaction entry: stack = [return-pc, location, "ctx"]
CTXR    pop             // drop "ctx"; fresh neighbour on top
        wclone          // re-seed the deployment there
        jumps           // resume the interrupted loop
.endm
// Replaces this node's <marker, loc> tuple with a fresh one.
.macro REFRESH_MARKER marker
        .tuple marker, LOCATION
        inp             // drop a stale one if present
        rjumpc DROP2
        rjump MARK
DROP2   pop
        pop
MARK    .tuple marker, loc
        out
.endm
// FIREDETECTOR's endings: the paper's one alert, or re-alert every
// `period` ticks while the node burns (network_lifetime's converge-cast).
// Both take the period so either fits one call.
.macro ALERT_ONCE period
        halt
.endm
.macro ALERT_EVERY period
        pushcl period
        sleep
        rjump MAIN
.endm
.macro SMOVE_ROUND_TRIP tx ty hx hy
        pushloc tx ty
        smove           // strong move out
        pushloc hx hy
        smove           // strong move back
        halt
.endm
.macro MOVE_ONCE move tx ty
        pushloc tx ty
        move
        halt
.endm
.macro ROUT_ONCE tx ty
        .tuple 1
        pushloc tx ty
        rout
        halt
.endm
.macro FIRE_DETECTOR tx ty limit ticks tail every
        CLAIM_AND_FLOOD det
// --- detection loop (paper Fig. 13 lines 1-8) ---
MAIN    pushc TEMPERATURE
        sense           // measure the temperature
        pushcl limit
        clt             // cond = 1 if temperature > threshold
        rjumpc FIRE
        pushcl ticks
        sleep
        rjump MAIN
// --- alert (paper Fig. 13 lines 9-14) ---
FIRE    .tuple "fir", loc
        pushloc tx ty
        rout            // notify the tracker host
        tail every
        FLOOD_TRAILER
.endm
.macro FIRE_TRACKER limit rest
// --- paper Fig. 2: arm the fire-alert reaction and wait ---
BEGIN   .tuple "fir", LOCATION
        pushc FIRE
        regrxn          // register fire alert reaction
WAITL   wait            // wait for the reaction to fire
// reaction entry: stack = [return-pc, location, "fir"]
FIRE    pop             // drop "fir"; alert location on top
        sclone          // strong clone to the node that saw fire
        cpush
        pushc 1
        ceq             // clone arrives with condition 1
        rjumpc CLONE
        pop             // original: drop return pc
        rjump WAITL     // and keep waiting for more alerts
CLONE   pop             // tracker at the fire: drop return pc
// --- tracking loop ---
TRACK   pushc TEMPERATURE
        sense
        pushcl limit
        clt             // cond = 1 while this node is hot
        rjumpc HOT
        .tuple "trk", LOCATION  // node cooled: remove our marker and die
        inp
        rjumpc GONE2
        halt
GONE2   pop
        pop
        halt
HOT     REFRESH_MARKER trk  // <"trk", loc> advertises the perimeter
// --- spread to an unoccupied neighbour ---
        randnbr
        rjumpc CAND
        pop             // no neighbours known yet
        rjump NAP
CAND    setvar 0        // candidate neighbour location
        .tuple "trk", LOCATION
        getvar 0
        rrdp            // tracker already there?
        rjumpc OCCUP
        getvar 0
        sclone          // spread the perimeter
        rjump NAP
OCCUP   pop
        pop             // discard the probed tuple
NAP     pushcl rest
        sleep
        rjump TRACK
.endm
.macro HABITAT_MONITOR ticks
BEGIN   .tuple "fir", LOCATION
        pushc DIE
        regrxn          // fire alert -> free our resources
MAIN    pushn hab
        pushc TEMPERATURE
        sense
        pushc 2
        out             // log <"hab", reading>
        pushcl ticks
        sleep
        rjump MAIN
DIE     halt            // voluntary exit (Sec. 2.2 scenario)
.endm
.macro BLINKER ticks
BEGIN   pushc 1
        putled
        pushc ticks
        sleep
        pushc 2
        putled
        pushc ticks
        sleep
        rjump BEGIN
.endm
.macro SENTINEL ticks
        CLAIM_AND_FLOOD stl
// --- publish a fresh signal-strength tuple forever ---
MAIN    .tuple "sig", READING
        inp             // drop the stale reading if present
        rjumpc DROP2
        rjump PUB
DROP2   pop
        pop
PUB     pushn sig
        pushc MAG
        sense
        pushc 2
        out             // <"sig", reading>
        pushc ticks
        sleep
        rjump MAIN
        FLOOD_TRAILER
.endm
.macro PURSUER rest
// heap: 0 = best reading, 1 = best location, 2 = neighbour index,
//       3 = candidate location, 4 = candidate reading
TRACK   pushc MAG
        sense           // how well do WE hear the intruder?
        setvar 0
        loc
        setvar 1
        pushc 0
        setvar 2
SCAN    getvar 2
        numnbrs
        cgt             // more neighbours to poll?
        rjumpc PROBE
        rjump DECIDE
PROBE   getvar 2
        getnbr
        setvar 3
        .tuple "sig", READING
        getvar 3
        rrdp            // read the sentinel's published reading
        rjumpc GOT
        rjump NEXT
GOT     pop             // drop "sig"; reading on top
        copy
        setvar 4
        getvar 0
        clt             // best < candidate ?
        rjumpc BETTER
        rjump NEXT
BETTER  getvar 4
        setvar 0
        getvar 3
        setvar 1
NEXT    getvar 2
        inc
        setvar 2
        rjump SCAN
DECIDE  loc
        getvar 1
        ceq             // already at the loudest node?
        rjumpc STAY
        getvar 1
        smove           // chase the intruder
STAY    REFRESH_MARKER pur  // refresh our breadcrumb
        pushc rest
        sleep
        rjump TRACK
.endm
// harness scenario agents
.macro SMOVE_TRIAL tx ty
        pushloc tx ty
        smove
        rjumpc OK1
        halt
OK1     pushloc 1 1
        smove
        rjumpc OK2
        halt
OK2     .tuple 7
        out
        halt
.endm
.macro ROUT_TRIAL tx ty
        .tuple 7
        pushloc tx ty
        rout
        rjumpc OK
        halt
OK      .tuple "ack", 7
        out
        halt
.endm
.macro REPORTER ticks
LOOP    .tuple "rpt", loc
        pushloc 1 1
        rout
        pushcl ticks
        sleep
        jump LOOP
.endm
)aga";

/// The `.macro name` ... `.endm` block of kLibrary (no name prefixes
/// another).
std::string_view macro(std::string_view name) {
  const std::size_t begin = kLibrary.find("\n.macro " + std::string(name));
  const std::size_t end = kLibrary.find("\n.endm", begin) + 6;
  return kLibrary.substr(begin, end - begin);
}

/// `loc` as two macro arguments, each formatted like printf's `%g`.
std::string coords(sim::Location loc) {
  char text[64];  // a %g double takes at most 13 characters
  char* end = text;
  for (const double v : {loc.x, loc.y}) {
    end = std::to_chars(end, text + sizeof(text), v,
                        std::chars_format::general, 6).ptr;
    *end++ = ' ';
  }
  return std::string(text, end - 1);
}

/// One agent's source: the helper macros it uses, its own macro, and one
/// line invoking that macro with `args`.
std::string invoke(std::initializer_list<std::string_view> helpers,
                   std::string_view agent,
                   std::initializer_list<std::string> args) {
  std::string source;
  for (const std::string_view helper : helpers) {
    source.append(macro(helper));
  }
  source.append(macro(agent)).append("\n").append(agent);
  for (const std::string& a : args) {
    source.append(" ").append(a);
  }
  return source.append("\n");
}

}  // namespace

std::string smove_round_trip(sim::Location there, sim::Location home) {
  return invoke({}, "SMOVE_ROUND_TRIP", {coords(there), coords(home)});
}

std::string move_once(const std::string& mnemonic, sim::Location there) {
  return invoke({}, "MOVE_ONCE", {mnemonic, coords(there)});
}

std::string rout_once(sim::Location there) {
  return invoke({}, "ROUT_ONCE", {coords(there)});
}

std::string fire_detector(sim::Location alert_to, int threshold,
                          int sample_ticks, int alert_every_ticks) {
  return invoke({"CLAIM_AND_FLOOD", "FLOOD_TRAILER", "ALERT_ONCE",
                 "ALERT_EVERY"},
                "FIRE_DETECTOR",
                {coords(alert_to), std::to_string(threshold),
                 std::to_string(sample_ticks),
                 alert_every_ticks > 0 ? "ALERT_EVERY" : "ALERT_ONCE",
                 std::to_string(alert_every_ticks)});
}

std::string fire_tracker(int threshold, int nap_ticks) {
  return invoke({"REFRESH_MARKER"}, "FIRE_TRACKER",
                {std::to_string(threshold), std::to_string(nap_ticks)});
}

std::string habitat_monitor(int sample_ticks) {
  return invoke({}, "HABITAT_MONITOR", {std::to_string(sample_ticks)});
}

std::string blinker(int period_ticks) {
  return invoke({}, "BLINKER", {std::to_string(period_ticks)});
}

std::string sentinel(int sample_ticks) {
  return invoke({"CLAIM_AND_FLOOD", "FLOOD_TRAILER"}, "SENTINEL",
                {std::to_string(sample_ticks)});
}

std::string pursuer(int nap_ticks) {
  return invoke({"REFRESH_MARKER"}, "PURSUER", {std::to_string(nap_ticks)});
}

std::string smove_trial(sim::Location there) {
  return invoke({}, "SMOVE_TRIAL", {coords(there)});
}

std::string rout_trial(sim::Location there) {
  return invoke({}, "ROUT_TRIAL", {coords(there)});
}

std::string reporter(int report_ticks) {
  return invoke({}, "REPORTER", {std::to_string(report_ticks)});
}

}  // namespace agilla::core::agents
