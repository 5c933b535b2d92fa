/**
 * @file
 * Module layering test: derives the module -> module include graph of
 * src/ (a module is one directory under src/, an edge is a quoted
 * `#include "other/..."` in any of its files) and requires it to equal
 * the allow-list below. A new edge fails with the file and line that
 * added it; an edge the tree no longer has fails until it is struck
 * from the list, so the list always documents the real graph.
 *
 * The graph has two cycles, both deliberate: audit <-> mem (UPMSan
 * shadows frames; the allocator reports to UPMSan) and hip <-> core
 * (the runtime reads core's calibration; core wires the runtime).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <string>
#include <vector>

namespace upm {
namespace {

namespace fs = std::filesystem;

using Graph = std::map<std::string, std::set<std::string>>;

/** Every allowed module -> module include edge. */
const Graph kAllowed = {
    {"alloc", {"audit", "common", "vm"}},
    {"audit", {"common", "mem"}},
    {"cache", {"audit", "common", "mem"}},
    {"core",
     {"alloc", "audit", "cache", "common", "exec", "fabric", "hip",
      "inject", "mem", "prof", "sched", "tlb", "trace", "vm"}},
    {"exec", {"common"}},
    {"fabric", {"common"}},
    {"hip",
     {"alloc", "audit", "cache", "common", "core", "fabric", "inject",
      "mem", "sched", "trace", "vm"}},
    {"inject", {"common", "trace"}},
    {"mem", {"audit", "common", "inject", "trace"}},
    {"policy", {"common", "trace"}},
    {"prof", {"mem", "trace", "vm"}},
    {"sched", {"common", "trace", "vm"}},
    {"serve", {"common", "core", "hip", "mem", "trace"}},
    {"tlb", {"common"}},
    {"trace", {"common"}},
    {"uvm", {"common", "mem", "policy"}},
    {"vm", {"audit", "common", "fabric", "inject", "mem", "trace"}},
    {"workloads", {"common", "core"}},
};

/** One cross-module include. */
struct Include
{
    std::string from;
    std::string to;
    std::string where;  //!< "src/<file>:<line>"
};

fs::path
srcDir()
{
    return fs::path(UPM_SOURCE_DIR) / "src";
}

/** Cross-module includes of @p file (a path under src/). */
std::vector<Include>
includesOf(const fs::path &file)
{
    static const std::regex kInclude(
        R"(^\s*#\s*include\s+"([A-Za-z0-9_]+)/[^"]+")");
    const fs::path rel = fs::relative(file, srcDir());
    const std::string module = rel.begin()->string();
    std::vector<Include> out;
    std::ifstream in(file);
    std::string line;
    for (int n = 1; std::getline(in, line); ++n) {
        std::smatch m;
        if (std::regex_search(line, m, kInclude) && m[1] != module) {
            out.push_back({module, m[1],
                           "src/" + rel.generic_string() + ":" +
                               std::to_string(n)});
        }
    }
    return out;
}

/** Every cross-module include under src/, in file-path order. */
std::vector<Include>
allIncludes()
{
    std::vector<fs::path> files;
    for (const auto &entry : fs::recursive_directory_iterator(srcDir())) {
        const std::string ext = entry.path().extension().string();
        if (entry.is_regular_file() && (ext == ".hh" || ext == ".cc"))
            files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    std::vector<Include> out;
    for (const auto &file : files) {
        auto inc = includesOf(file);
        out.insert(out.end(), inc.begin(), inc.end());
    }
    return out;
}

TEST(Layering, EveryModuleIncludeIsAllowed)
{
    auto includes = allIncludes();
    ASSERT_FALSE(includes.empty()) << "no sources under " << srcDir();
    for (const auto &inc : includes) {
        auto it = kAllowed.find(inc.from);
        bool ok = it != kAllowed.end() && it->second.count(inc.to) > 0;
        EXPECT_TRUE(ok) << inc.where << ": " << inc.from << " -> "
                        << inc.to << " is not an allowed module edge";
    }
}

TEST(Layering, AllowListMatchesTheTree)
{
    Graph seen;
    for (const auto &inc : allIncludes())
        seen[inc.from].insert(inc.to);
    for (const auto &[from, tos] : kAllowed) {
        for (const auto &to : tos) {
            EXPECT_TRUE(seen[from].count(to) > 0)
                << from << " -> " << to
                << " is allowed but no longer used; drop it from the list";
        }
    }
}

TEST(Layering, HooksHeaderIncludesNoOtherModule)
{
    // mem, vm and hip sit below the modules the hooks point into, so
    // the bundle they all take may only forward-declare those types.
    const fs::path hooks = srcDir() / "common" / "hooks.hh";
    ASSERT_TRUE(fs::exists(hooks));
    for (const auto &inc : includesOf(hooks))
        ADD_FAILURE() << inc.where << ": common/hooks.hh includes "
                      << inc.to;
}

} // namespace
} // namespace upm
