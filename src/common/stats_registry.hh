/**
 * @file
 * Central registry of per-component statistics groups. Every
 * component a System builds registers its stats::Group here, so one
 * call dumps the whole machine's counters -- as text (gem5 stats.txt
 * style) or as JSON (the single serialization path bench --json
 * output also flows through).
 *
 * A component on the translation path counts in plain fields and
 * mirrors them into its group in its refreshStats(): a System's
 * component groups are current after a dump or after
 * System::refreshStats(), not before.
 */

#ifndef NEUMMU_COMMON_STATS_REGISTRY_HH
#define NEUMMU_COMMON_STATS_REGISTRY_HH

#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/stats.hh"

namespace neummu {
namespace stats {

/**
 * Holds references to component-owned groups (add()) and owns ad-hoc
 * groups created through group() -- e.g., per-grid-point bench
 * results. Dump order is registration order, so output is stable
 * across runs.
 */
class StatsRegistry
{
  public:
    StatsRegistry() = default;
    StatsRegistry(const StatsRegistry &) = delete;
    StatsRegistry &operator=(const StatsRegistry &) = delete;

    /**
     * Register a component-owned group. The group must outlive the
     * registry (components and registry are co-owned by System).
     */
    void add(Group &group);

    /**
     * Return the registry-owned group named @p name, creating and
     * registering it on first use. For recording results that have no
     * natural component owner (bench grid points, derived metrics).
     */
    Group &group(const std::string &name);

    /**
     * Return the registry-owned *dynamic* group named @p name,
     * creating it on first use. Dynamic groups form their own section
     * dumped after every statically registered group, ordered by name
     * rather than by creation time -- components that come and go
     * mid-run (serving tenants) register here so the dump stays
     * byte-identical no matter when each group first appeared.
     */
    Group &dynamicGroup(const std::string &name);

    /** Drop the dynamic group named @p name, if present. */
    void removeDynamicGroup(const std::string &name);

    /** All registered groups, in registration order. */
    const std::vector<Group *> &groups() const { return _groups; }

    /** All dynamic groups, in name order. */
    const std::map<std::string, std::unique_ptr<Group>> &
    dynamicGroups() const
    {
        return _dynamic;
    }

    /** Find a registered group by name; nullptr when absent. */
    const Group *find(const std::string &name) const;

    /** Write "group.stat value" lines for every registered group. */
    void dumpText(std::ostream &os) const;

    /**
     * Write every registered group as one JSON object:
     * { "group": { "scalar": v, "avg": {mean,count,min,max} } }.
     */
    void dumpJson(std::ostream &os) const;

    /** dumpJson() to @p path; false (with a warning) on I/O failure. */
    bool writeJsonFile(const std::string &path) const;

    /** Reset every statistic in every registered group. */
    void reset();

  private:
    std::vector<Group *> _groups;
    std::vector<std::unique_ptr<Group>> _owned;
    std::map<std::string, std::unique_ptr<Group>> _dynamic;
};

/** Escape @p s for use inside a JSON string literal. */
std::string jsonEscape(const std::string &s);

} // namespace stats
} // namespace neummu

#endif // NEUMMU_COMMON_STATS_REGISTRY_HH
