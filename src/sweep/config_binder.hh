/**
 * @file
 * Data-driven configuration surface: binds string "key=value"
 * overrides (sweep-manifest fields, grid specs, CLI options) onto a
 * SystemConfig, covering the machine description itself plus the
 * nested MMU, memory, TLB, and page-lifecycle knobs the NeuMMU design
 * space sweeps over.
 *
 * Overrides apply IN ORDER, which makes two idioms work:
 *
 * - "mmuKind=neummu mmu.numPtws=32" starts from the canned NeuMMU
 *   design point and edits one knob: the first mmu.* key materializes
 *   the resolved config and flips the kind to Custom.
 * - "mmuKind=baseline preset=dlrm_paging paging.residentLimitPages=48"
 *   replaces the machine with a canned scenario machine (keeping
 *   name/seed/mmuKind) and then tightens the residency cap.
 *
 * The reverse order is an error, not a silent reset: a
 * mmuKind=/mmu.design= override AFTER earlier mmu.* edits would
 * discard them and throws BindError instead.
 *
 * Errors are user errors and throw BindError (never exit), so the
 * SweepEngine can report a misconfigured job without killing the
 * sweep. binderKeyTable() is the authoritative key list for --help
 * output and the README.
 */

#ifndef NEUMMU_SWEEP_CONFIG_BINDER_HH
#define NEUMMU_SWEEP_CONFIG_BINDER_HH

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "system/system.hh"

namespace neummu {
namespace sweep {

/** User error in an override (unknown key, malformed value). */
class BindError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Ordered key=value overrides (application order is significant). */
using OverrideList =
    std::vector<std::pair<std::string, std::string>>;

/** Split "key=value"; throws BindError when there is no '='. */
std::pair<std::string, std::string> parseOverride(
    const std::string &text);

/** Apply one override to @p cfg. Throws BindError on junk. */
void applyOverride(SystemConfig &cfg, const std::string &key,
                   const std::string &value);

/**
 * Apply @p overrides to @p cfg, in list order, then check the keys
 * that constrain each other (mmu.tlb.ways must divide
 * mmu.tlb.entries). Throws BindError on junk.
 */
void applyOverrides(SystemConfig &cfg, const OverrideList &overrides);

/** One documented binder key. */
struct BinderKeyDoc
{
    const char *key;
    const char *doc;
};

/** Every bindable key with its one-line description. */
const std::vector<BinderKeyDoc> &binderKeyTable();

/** Multi-line "key  description" help text (CLI --list-keys). */
std::string binderHelp();

} // namespace sweep
} // namespace neummu

#endif // NEUMMU_SWEEP_CONFIG_BINDER_HH
