// Reproduces Figure 7: lines of code required to express each benchmark
// query on each system.
//
// The paper counts the minimal auto-formatted code needed to run each query
// per system, plus any supporting extension code. Here each query is written
// once, in src/systems/query_engine.cc, as a sequence of engine hook calls;
// an engine's query-specific hooks live in its own source file. Both are
// delimited by "vr:<queries>:begin/end" markers, where <queries> is one query
// name or a comma-separated list (a hook several queries share). A query's
// count on an engine is the marked lines of its shared body plus that
// engine's marked hook lines for the query, counting non-empty, non-comment
// lines; the engine's Supports() decides where the table shows "-".

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"

namespace visualroad::bench {
namespace {

std::map<std::string, int> CountMarkedSections(const std::string& path) {
  std::map<std::string, int> counts;
  std::ifstream file(path);
  if (!file) return counts;
  std::string line;
  std::vector<std::string> active;
  while (std::getline(file, line)) {
    size_t begin = line.find("// vr:");
    if (begin != std::string::npos) {
      std::string marker = line.substr(begin + 6);
      size_t colon = marker.rfind(':');
      if (colon != std::string::npos) {
        std::string kind = marker.substr(colon + 1);
        if (kind.find("begin") == 0) {
          active.clear();
          std::stringstream names(marker.substr(0, colon));
          for (std::string name; std::getline(names, name, ',');) {
            active.push_back(name);
            counts[name] += 0;
          }
          continue;
        }
        if (kind.find("end") == 0) {
          active.clear();
          continue;
        }
      }
    }
    if (active.empty()) continue;
    // Count non-empty, non-pure-comment lines (auto-formatted source).
    std::string trimmed;
    for (char c : line) {
      if (!isspace(static_cast<unsigned char>(c))) trimmed += c;
    }
    if (trimmed.empty()) continue;
    if (trimmed.rfind("//", 0) == 0) continue;
    for (const std::string& name : active) ++counts[name];
  }
  return counts;
}

int Run() {
  PrintBanner("Figure 7 - Lines of code per query per system",
              "Counting marked shared query bodies plus each engine's marked "
              "hooks.");

  const std::string root = VISUALROAD_SOURCE_DIR;
  const std::string shared_path = root + "/src/systems/query_engine.cc";
  const std::map<std::string, int> shared = CountMarkedSections(shared_path);
  if (shared.empty()) {
    std::fprintf(stderr, "no marked sections found in %s\n", shared_path.c_str());
    return 1;
  }
  struct EngineSource {
    std::unique_ptr<systems::Vdbms> engine;
    std::string path;
  };
  const systems::EngineOptions options;
  EngineSource sources[] = {
      {systems::MakeBatchEngine(options), root + "/src/systems/batch_engine.cc"},
      {systems::MakePipelineEngine(options), root + "/src/systems/pipeline_engine.cc"},
      {systems::MakeCascadeEngine(options), root + "/src/systems/cascade_engine.cc"},
  };

  driver::TextTable table;
  std::vector<std::string> header{"Query"};
  for (const EngineSource& source : sources) header.push_back(source.engine->name());
  table.SetHeader(header);
  int totals[3] = {0, 0, 0};
  std::map<std::string, int> hooks[3];
  for (int e = 0; e < 3; ++e) hooks[e] = CountMarkedSections(sources[e].path);
  for (queries::QueryId id : queries::AllQueries()) {
    std::string name = queries::QueryName(id);
    auto body = shared.find(name);
    if (body == shared.end()) {
      std::fprintf(stderr, "no shared body marked for %s\n", name.c_str());
      return 1;
    }
    std::vector<std::string> row{name};
    for (int e = 0; e < 3; ++e) {
      if (!sources[e].engine->Supports(id)) {
        row.push_back("-");
        continue;
      }
      auto hook = hooks[e].find(name);
      int lines = body->second + (hook == hooks[e].end() ? 0 : hook->second);
      row.push_back(std::to_string(lines));
      totals[e] += lines;
    }
    table.AddRow(row);
  }
  table.AddRow({"Total", std::to_string(totals[0]), std::to_string(totals[1]),
                std::to_string(totals[2])});
  std::printf("%s\n", table.ToString().c_str());
  std::printf("Shape to reproduce: the specialised cascade engine needs code for"
              " only two queries;\nthe two general engines have similar counts"
              " per query (both are C++ dataflow code).\n");
  return 0;
}

}  // namespace
}  // namespace visualroad::bench

int main() { return visualroad::bench::Run(); }
