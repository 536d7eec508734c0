#include "translate/pipeline.hh"

#include <cstring>

#include "common/logging.hh"
#include "translate/coalesced.hh"
#include "translate/victima.hh"

namespace bf::translate
{

const char *
backendName(BackendKind kind)
{
    switch (kind) {
      case BackendKind::BabelFish: return "babelfish";
      case BackendKind::Victima: return "victima";
      case BackendKind::Coalesced: return "coalesced";
    }
    return "unknown";
}

bool
parseBackend(const char *name, BackendKind &out)
{
    if (!name)
        return false;
    for (unsigned i = 0; i < numBackendKinds; ++i) {
        const auto kind = static_cast<BackendKind>(i);
        if (std::strcmp(name, backendName(kind)) == 0) {
            out = kind;
            return true;
        }
    }
    return false;
}

std::unique_ptr<PipelineBackend>
createBackend(unsigned core_id, const core::MmuParams &params,
              TranslateStats &stats, stats::StatGroup &group)
{
    switch (params.backend) {
      case BackendKind::BabelFish:
        return std::make_unique<PipelineBackend>(core_id, params, stats,
                                                 group);
      case BackendKind::Victima:
        return std::make_unique<VictimaBackend>(core_id, params, stats,
                                                group);
      case BackendKind::Coalesced:
        return std::make_unique<CoalescedBackend>(core_id, params, stats,
                                                  group);
    }
    bf_panic("unknown translation backend id ",
             static_cast<unsigned>(params.backend));
}

} // namespace bf::translate
