// robodet_statedump: read-only inspector for a persistence state
// directory (snapshot.bin + journal.bin). Prints what each file holds
// and whether the pair is consistent; exit status makes it usable as a
// health check:
//
//   0  clean — both files validate, epochs match, no bytes dropped
//   1  damaged — something present is corrupt, torn, or mismatched
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
                 "exits 0 when the snapshot+journal pair is clean, 1 when\n"
                 "anything present is corrupt or torn, 2 on usage error.\n");
    return flags.GetBool("help") ? 0 : 2;
  }

  const InspectionResult result = InspectState(state_dir);

  std::printf("state dir: %s\n", state_dir.c_str());
  std::printf("snapshot:  present=%s valid=%s", YesNo(result.snapshot_present),
              YesNo(result.snapshot_valid));
  if (result.snapshot_valid) {
    std::printf(" epoch=%llu created_at=%lld keys=%zu sessions=%zu",
                static_cast<unsigned long long>(result.snapshot.epoch),
                static_cast<long long>(result.snapshot.created_at),
                result.snapshot.keys, result.snapshot.sessions);
    if (result.snapshot.sections_dropped > 0) {
      std::printf(" sections_dropped=%zu/%zu", result.snapshot.sections_dropped,
                  result.snapshot.sections_total);
    }
  }
  std::printf("\n");
  std::printf("journal:   present=%s valid=%s", YesNo(result.journal_present),
              YesNo(result.journal_valid));
  if (result.journal_valid) {
    std::printf(" epoch=%llu records=%zu",
                static_cast<unsigned long long>(result.journal.epoch), result.journal.records);
    if (result.journal.records_dropped > 0) {
      std::printf(" records_dropped=%zu", result.journal.records_dropped);
    }
    if (result.journal.bytes_dropped > 0) {
      std::printf(" torn_tail_bytes=%zu", result.journal.bytes_dropped);
    }
  }
  std::printf("\n");
  if (result.snapshot_valid && result.journal_valid) {
    std::printf("epochs:    %s\n",
                result.epoch_match ? "match (journal extends snapshot)"
                                   : "mismatch (journal is stale or orphaned)");
  }
  std::printf("verdict:   %s\n", result.clean ? "clean" : "DAMAGED");
  return result.clean ? 0 : 1;
}
