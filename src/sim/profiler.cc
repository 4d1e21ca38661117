#include "sim/profiler.hh"

#include "common/logging.hh"

namespace neummu {

const char *
profSubsystemName(ProfSubsystem s)
{
    switch (s) {
      case ProfSubsystem::Kernel: return "kernel";
      case ProfSubsystem::DmaIssue: return "dmaIssue";
      case ProfSubsystem::DmaData: return "dmaData";
      case ProfSubsystem::MmuTranslate: return "mmuTranslate";
      case ProfSubsystem::MmuWalk: return "mmuWalk";
      case ProfSubsystem::MmuRespond: return "mmuRespond";
      case ProfSubsystem::Memory: return "memory";
      case ProfSubsystem::Paging: return "paging";
      case ProfSubsystem::Serving: return "serving";
      case ProfSubsystem::Workload: return "workload";
      case ProfSubsystem::Router: return "router";
      case ProfSubsystem::Count: break;
    }
    NEUMMU_PANIC("unknown profile subsystem");
}

std::string
SimProfiler::collapsed() const
{
    std::string out;
    for (unsigned p = 0; p <= rootSlot; p++) {
        for (unsigned c = 0; c < numSlots; c++) {
            const Slot &s = _pairs[p][c];
            if (!s.count)
                continue;
            out += "neummu;";
            if (p != rootSlot) {
                out += profSubsystemName(ProfSubsystem(p));
                out += ';';
            }
            out += profSubsystemName(ProfSubsystem(c));
            out += ' ';
            out += std::to_string(s.nanos);
            out += '\n';
        }
    }
    return out;
}

} // namespace neummu
