// Forwarder to dse/strategy_explorer.hh. It stays because perfbench/
// includes this path, and BENCHMARK.json's "paths" freeze perfbench/.
#include "dse/strategy_explorer.hh"
