// Crash-safe file primitives shared by the checkpointed shard pipelines
// (corpus generation in core/corpus_pipeline.hpp, and the sharded-unit
// engine in core/sharded_run.hpp behind the Table-I and transfer
// sweeps).
//
// Both follow the same on-disk contract: a shard streams results to a
// data file, a resume validates the longest usable prefix and rewrites
// the file down to it *atomically* before appending, and a
// process-lifetime advisory lock makes concurrent duplicate invocations
// of one shard fail fast.  These are the two primitives that contract
// rests on.
#ifndef QAOAML_COMMON_CHECKPOINT_HPP
#define QAOAML_COMMON_CHECKPOINT_HPP

#include <iosfwd>
#include <string>

namespace qaoaml {

/// Advisory per-file exclusive lock (flock on the given path) so two
/// concurrent owners of one checkpointed resource fail fast instead of
/// interleaving writes.  flock is released by the kernel when the
/// process dies — including SIGKILL — so a crashed run never leaves a
/// stale lock that would block the resume the pipelines are built
/// around.  Throws InvalidArgument when the lock is already held by
/// another process.
class FileLock {
 public:
  explicit FileLock(const std::string& path);
  ~FileLock();
  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;

 private:
  int fd_;
};

/// True when another process currently holds the FileLock at `path`
/// (non-blocking probe; acquires and immediately releases on a free
/// lock).  A missing lock file counts as unlocked.  The orchestrator
/// uses this to tell a dead worker (lock released by the kernel) from
/// a live-but-silent one before retrying its shard.
bool is_locked(const std::string& path);

/// Writes `content` to `path` atomically AND durably: the bytes go to a
/// PID-suffixed temp file (binary mode, matching the binary-mode no-op
/// comparison below) which is fsync'd before the rename, and the
/// parent directory is fsync'd after it — so neither a kill mid-rewrite
/// nor a power cut right after the call can leave the file shorter
/// than before.  A file that already holds exactly `content` is left
/// untouched — the common no-op resume of a complete shard then costs a
/// read, not a rewrite (which matters on shared storage).  On a failed
/// write (e.g. disk full) or a failed rename the temp file is removed
/// before rethrowing.
void replace_file_atomic(const std::string& path, const std::string& content);

/// std::getline that additionally rejects a torn trailing line: returns
/// true only when the line was terminated by '\n'.  A kill mid-write
/// (or any truncation) can cut the final line inside its LAST numeric
/// token, leaving text that still parses cleanly — e.g. "... 13" torn
/// to "... 1" — so "does it parse" cannot detect the tear; the missing
/// newline can.  Every resume parser must read unit lines through this,
/// never through raw std::getline.
bool getline_complete(std::istream& is, std::string& line);

}  // namespace qaoaml

#endif  // QAOAML_COMMON_CHECKPOINT_HPP
