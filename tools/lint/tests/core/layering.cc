// Layering: this file sits in module core/, so it may include core/
// and every module before it in the order, but nothing after it. An
// include of a later module fires; a commented-out one, an include
// inside a string and a suppressed one do not.

#include <vector>

#include "common/logging.hh"
#include "core/repository.hh"
#include "local.hh"
#include "proxy/proxy.hh"
#include "serving/wire.hh"  // expect(layering)
#  include <experiments/fleet.hh>  // expect(layering)
// #include "serving/client.hh"
/* #include "serving/socket.hh" */
// lint-allow(layering): exercising the pragma form of the rule
#include "profiling/work_queue.hh"

const char *kIncludeText = "#include \"serving/server.hh\"";
