// fuzz-rows: lazily settled shortest-path rows against an eager sweep.
#pragma once

#include "util/cli.h"

namespace mecar::tools {

/// `mecar_cli fuzz-rows [--seeds=N | --seed=K]`: random interleavings of
/// candidate, min-latency, delay, order and path queries on a fresh
/// (lazy) Topology, each compared bit for bit with an eager all-pairs
/// Dijkstra sweep and the id-order candidate kernel. A failure prints a
/// `--seed=K` replay line. Returns the process exit code.
int cmd_fuzz_rows(const util::Cli& cli);

}  // namespace mecar::tools
