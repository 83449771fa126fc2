// Canonical agents from the paper, in assembly source form: each is one
// `.macro` in agent_library.cpp, and a wrapper only passes its arguments.
//
// The smove/rout test agents reproduce paper Fig. 8 (the reliability and
// latency experiments of Sec. 4); FIREDETECTOR reproduces Fig. 13;
// FIRETRACKER expands Fig. 2 with the tracking/swarming code the paper
// describes but does not print ("available at [2]").
#pragma once

#include <string>

#include "sim/types.h"

namespace agilla::core::agents {

/// Fig. 8 (top): strong-move to `there` and back to `home`, then halt.
std::string smove_round_trip(sim::Location there, sim::Location home);

/// One-way strong move, then halt (used by the one-hop latency bench).
std::string move_once(const std::string& mnemonic, sim::Location there);

/// Fig. 8 (bottom): rout the tuple <1> onto the node at `there`.
std::string rout_once(sim::Location there);

/// Fig. 13 FIREDETECTOR with the omitted bootstrapping code filled in:
/// flood-clones over the network claiming nodes with a <"det", loc> marker,
/// then samples temperature every `sample_ticks`/8 s and routs a
/// <"fir", loc> alert to `alert_to` when the reading exceeds `threshold`.
/// The claimer also reacts to fresh <"ctx", loc> tuples (inserted by the
/// middleware on neighbour discovery) by re-cloning the deployment there,
/// so churn-rebooted nodes are re-seeded instead of staying agent-less.
/// With `alert_every_ticks` > 0 the detector keeps re-alerting every that
/// many ticks while the node stays hot (periodic sense-and-report, the
/// network_lifetime converge-cast) instead of the paper's alert-and-halt.
std::string fire_detector(sim::Location alert_to, int threshold = 200,
                          int sample_ticks = 80, int alert_every_ticks = 0);

/// Fig. 2 FIRETRACKER plus tracking code: waits for a <"fir", location>
/// alert, strong-clones to the fire, marks the perimeter with <"trk", loc>
/// tuples, spreads to unoccupied neighbours, and dies when its node cools
/// below `threshold`.
std::string fire_tracker(int threshold = 180, int nap_ticks = 16);

/// Minimal habitat-monitoring agent (Sec. 2.2 scenario): periodically logs
/// a <"hab", reading> tuple, and self-terminates when a fire alert tuple
/// appears on its node (reaction-driven, demonstrating decoupling).
std::string habitat_monitor(int sample_ticks = 40);

/// Blinks the LEDs forever (quickstart demo).
std::string blinker(int period_ticks = 8);

/// Intruder-tracking pair (paper Sec. 1: "instead of worrying about how
/// nodes must coordinate to track an intruder, a mobile agent programmer
/// can think of an agent following the intruder by repeatedly migrating to
/// the node that best detects it").
///
/// SENTINEL flood-deploys like FIREDETECTOR (including the <"ctx", loc>
/// re-flood reaction) and keeps a fresh <"sig", magnetometer-reading>
/// tuple in its node's tuple space.
std::string sentinel(int sample_ticks = 8);

/// PURSUER compares its own magnetometer reading against its neighbours'
/// published <"sig", reading> tuples (via rrdp) and strong-moves to
/// whichever node hears the intruder best, dropping a <"pur", loc>
/// breadcrumb at every stop.
std::string pursuer(int nap_ticks = 8);

/// smove scenario trial agent: strong-move to `there` and back to (1,1),
/// halting if either hop fails, then drop <7> on the origin.
std::string smove_trial(sim::Location there);

/// rout scenario trial agent: rout <7> onto the node at `there`; on an
/// acknowledged success drop <"ack", 7> on the origin.
std::string rout_trial(sim::Location there);

/// report_collection scenario agent: rout <"rpt", loc> to the gateway at
/// (1,1) every `report_ticks` ticks, forever.
std::string reporter(int report_ticks);

}  // namespace agilla::core::agents
