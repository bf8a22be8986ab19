// robodet_statedump: read-only inspector for a persistence state
// directory (state.bin). Prints what the file holds and what a recovery
// of it would drop; exit status makes it usable as a health check:
//
//   0  clean — the file is present, its header validates, and no record
//      or byte is dropped
//   1  damaged — the file is missing, corrupt or torn
//   2  usage error
//
// Usage:
//   robodet_statedump --state-dir=DIR
//   robodet_statedump DIR
#include <cstdio>
#include <string>

#include "src/robodet.h"
#include "tools/flags.h"

using namespace robodet;

namespace {

const char* YesNo(bool b) { return b ? "yes" : "no"; }

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  std::string state_dir = flags.GetString("state-dir", "");
  if (state_dir.empty() && !flags.positional().empty()) {
    state_dir = flags.positional().front();
  }
  if (flags.GetBool("help") || state_dir.empty()) {
    std::fprintf(stderr,
                 "usage: robodet_statedump --state-dir=DIR\n"
                 "       robodet_statedump DIR\n"
                 "exits 0 when state.bin is clean, 1 when it is missing,\n"
                 "corrupt or torn, 2 on usage error.\n");
    return flags.GetBool("help") ? 0 : 2;
  }

  const InspectionResult result = InspectState(state_dir);

  std::printf("state dir: %s\n", state_dir.c_str());
  std::printf("state.bin: present=%s valid=%s", YesNo(result.present), YesNo(result.valid));
  if (result.valid) {
    std::printf(" records=%zu key_issued=%zu key_consumed=%zu session_update=%zu"
                " session_closed=%zu",
                result.records(), result.key_issues, result.key_consumes,
                result.session_updates, result.session_closes);
    if (result.records_dropped > 0) {
      std::printf(" records_dropped=%zu", result.records_dropped);
    }
    if (result.bytes_dropped > 0) {
      std::printf(" torn_tail_bytes=%zu", result.bytes_dropped);
    }
  }
  std::printf("\n");
  std::printf("verdict:   %s\n", result.clean ? "clean" : "DAMAGED");
  return result.clean ? 0 : 1;
}
