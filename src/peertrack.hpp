#pragma once
// PeerTrack — public umbrella header.
//
// Reproduction of "P2P Object Tracking in the Internet of Things"
// (Wu, Sheng, Ranasinghe — ICPP 2011). Include this to get the whole
// public surface; fine-grained headers are listed below for targeted use.
//
//   tracking::TrackingSystem  — build a traceable network, capture objects,
//                               run trace/locate queries (the paper's core).
//   tracking::TrackerNode     — per-organization node (gateway indexing,
//                               group windows, Data Triangle, IOP queries).
//   chord::*                  — the Chord DHT overlay substrate.
//   moods::*                  — the MOODS moving-object model, IOP store,
//                               receptors, and the ground-truth oracle.
//   central::CentralTracker   — the centralized-warehouse baseline.
//   estimate::*               — gossip network-size estimation (not wired
//                               into Lp yet; ROADMAP item 3).
//   obs::InvariantMonitor     — continuous ring/IOP/triangle health auditing
//                               with repair-latency metrics.
//   workload::*               — EPC ids, arrival processes, movement plans.

#include "central/central_tracker.hpp"
#include "chord/chord_ring.hpp"
#include "estimate/gossip.hpp"
#include "hash/keyspace.hpp"
#include "moods/oracle.hpp"
#include "moods/receptor.hpp"
#include "obs/invariants.hpp"
#include "tracking/tracking_system.hpp"
#include "workload/arrivals.hpp"
#include "workload/epc.hpp"
#include "workload/scenario.hpp"
