// Crash-safe whole-file publication for the on-disk stores (checkpoint
// snapshots, the characterization cache, the stress-primitive store).
//
// A reader never sees a partially written file, and a crash at any point
// leaves either the previous file or the new one: the bytes go to
// `<path>.tmp`, which is flushed and checked for a short write, fsynced,
// renamed over `path`, and then the parent directory is fsynced so the
// rename itself survives a power loss.
#pragma once

#include <functional>
#include <ostream>
#include <string>

namespace viaduct {

/// Replaces `path` with what `write` streams, by the protocol above.
/// Returns false on any I/O failure, with `path` untouched and no temp file
/// left behind. An exception from `write` also removes the temp file and
/// propagates. Concurrent writers of one path must serialize among
/// themselves (they share the temp name).
bool writeFileAtomically(const std::string& path,
                         const std::function<void(std::ostream&)>& write);

}  // namespace viaduct
