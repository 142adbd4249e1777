// mango_claims: print the paper's experiment tables (E1-E13, E15).
//
//   mango_claims           every table, in E order
//   mango_claims E4 E7     the named tables only
//
// Exit codes: 0 = printed; 1 = unknown experiment id.
#include <cstdio>
#include <vector>

#include "exp/paper.hpp"

using namespace mango::exp;

int main(int argc, char** argv) {
  std::vector<const paper::Experiment*> chosen;
  for (int i = 1; i < argc; ++i) {
    const paper::Experiment* e = paper::find_experiment(argv[i]);
    if (e == nullptr) {
      std::fprintf(stderr,
                   "mango_claims: unknown experiment '%s'; valid ids:\n",
                   argv[i]);
      for (const paper::Experiment& x : paper::experiments()) {
        std::fprintf(stderr, "  %-4s %s\n", x.id, x.title);
      }
      return 1;
    }
    chosen.push_back(e);
  }
  if (chosen.empty()) {
    for (const paper::Experiment& e : paper::experiments()) {
      chosen.push_back(&e);
    }
  }
  for (std::size_t i = 0; i < chosen.size(); ++i) {
    if (i > 0) std::printf("\n");
    chosen[i]->print();
  }
  return 0;
}
