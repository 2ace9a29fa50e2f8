// The per-opcode / per-branch-site stats tables are written by the one
// per-site collector, obs::ProfileCollector (obs/profile.h). This alias
// keeps the older name compiling for code that still spells it.
#pragma once

#include "obs/profile.h"

namespace adlsym::obs {

using SiteStatsCollector = ProfileCollector;

}  // namespace adlsym::obs
