#include "common/logging.hh"  // expect(layering)

// Layering: unlisted/ is not a module of the order, so the file is
// flagged on its first line whatever it includes.
