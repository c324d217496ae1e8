#ifndef KGFD_CORE_RESUME_H_
#define KGFD_CORE_RESUME_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/discovery.h"
#include "kg/triple_store.h"
#include "kge/model.h"
#include "util/framed_log.h"
#include "util/retry.h"
#include "util/status.h"

namespace kgfd {

/// Checkpoint/resume for long discovery sweeps: DiscoverFactsResumable
/// appends every completed relation to a *resume manifest*, so a run killed
/// by a crash, OOM, or I/O failure restarts from the last finished relation
/// instead of from scratch — and, because each relation draws from its own
/// seed-derived RNG stream, the resumed run's fact set is bit-identical to
/// an uninterrupted run's.
///
/// The manifest is an append-only framed log (util/framed_log.h): one
/// header record holding the fingerprint, then one record per finished
/// relation and, for ADAPTIVE, one per finished bandit round. Loading
/// replays the log; a torn or corrupt tail loses only the records after
/// the last whole one.

/// One completed relation as recorded in the manifest.
struct RelationCheckpointEntry {
  RelationId relation = 0;
  uint64_t num_candidates = 0;
  std::vector<DiscoveredFact> facts;
};

/// ADAPTIVE only: the finished bandit rounds of a relation that was
/// interrupted mid-relation. Rounds are stored in play order (index ==
/// round number); on resume they are replayed through the scheduler so the
/// remaining rounds continue from the exact allocation state the
/// interrupted run had.
struct AdaptiveRelationPartial {
  RelationId relation = 0;
  std::vector<AdaptiveRoundRecord> rounds;
};

/// Resume state replayed from a manifest: a fingerprint of everything the
/// output depends on (model identity and parameters, graph shape, discovery
/// options, relation order) plus the per-relation results completed so
/// far. Loading validates the format; CheckManifestCompatible validates the
/// fingerprint.
struct ResumeManifest {
  // -- Fingerprint ---------------------------------------------------------
  std::string model_name;
  /// FNV-1a over every model parameter tensor, so resuming against retrained
  /// weights is caught instead of silently mixing two models' facts.
  uint64_t model_param_hash = 0;
  uint64_t num_entities = 0;
  uint64_t num_relations = 0;
  uint64_t num_triples = 0;
  uint64_t seed = 0;
  std::string strategy;
  uint64_t top_n = 0;
  uint64_t max_candidates = 0;
  uint64_t max_iterations = 0;
  uint8_t filtered_ranking = 0;
  uint8_t cache_weights = 0;
  uint8_t type_filter = 0;
  uint8_t rank_aggregation = 0;
  /// ADAPTIVE fingerprint fields; zero for every other strategy. The
  /// exploration constant is compared bit-exactly — any change to it yields
  /// a different bandit schedule, so it invalidates the manifest the same
  /// way a different seed would.
  uint64_t adaptive_rounds = 0;
  double adaptive_exploration = 0.0;
  /// The full relation order of the run (not just the completed prefix).
  std::vector<RelationId> relations;

  // -- Progress ------------------------------------------------------------
  std::vector<RelationCheckpointEntry> done;
  /// ADAPTIVE only: round-level progress of relations not yet in `done`.
  /// A relation moves out of here the moment it completes.
  std::vector<AdaptiveRelationPartial> partial;
};

/// FNV-1a over the raw bytes of every parameter tensor, in Parameters()
/// order. (Parameters() is non-const in the Model interface but does not
/// mutate observable state.)
uint64_t HashModelParameters(Model* model);

/// Builds the fingerprint header (no progress entries) for a run.
ResumeManifest MakeManifestHeader(Model* model, const TripleStore& kg,
                                  const DiscoveryOptions& options,
                                  const std::vector<RelationId>& relations);

/// FailedPrecondition with a field-naming message if `loaded`'s fingerprint
/// differs from `expected`'s; OK otherwise.
Status CheckManifestCompatible(const ResumeManifest& loaded,
                               const ResumeManifest& expected);

/// Replays the manifest log at `path` without changing it (doubles
/// round-trip bit-exactly). Records after a torn or corrupt one are not
/// loaded; a file without an intact header record is an IoError.
Result<ResumeManifest> LoadResumeManifest(const std::string& path);

/// The append side of a manifest log. Not thread-safe: the caller
/// serializes appends.
class ResumeManifestWriter {
 public:
  /// Creates `path` (tmp + rename) holding only `header`'s fingerprint;
  /// its progress fields are ignored.
  static Result<std::unique_ptr<ResumeManifestWriter>> Create(
      const std::string& path, const ResumeManifest& header);

  /// Replays the existing manifest at `path` into `manifest` and truncates
  /// the file back to its last whole record, so appends continue there.
  static Result<std::unique_ptr<ResumeManifestWriter>> Open(
      const std::string& path, ResumeManifest* manifest);

  /// One finished relation; on replay it supersedes the relation's rounds.
  Status AppendRelation(const RelationCheckpointEntry& entry);
  /// One finished ADAPTIVE round; `round.round` must equal the number of
  /// rounds already recorded for `relation`.
  Status AppendRound(RelationId relation, const AdaptiveRoundRecord& round);

 private:
  explicit ResumeManifestWriter(std::unique_ptr<FramedLog> log)
      : log_(std::move(log)) {}

  std::unique_ptr<FramedLog> log_;
};

/// Controls DiscoverFactsResumable.
struct ResumeOptions {
  /// Manifest location. Loaded (and fingerprint-checked) if it exists;
  /// created otherwise. Left in place on success, so re-running a finished
  /// job is a cheap no-op that returns the same facts.
  std::string manifest_path;
  /// Retry policy for manifest writes (a transiently failing checkpoint
  /// write should not kill an hours-long sweep).
  RetryPolicy save_retry;
};

/// DiscoverFacts with checkpoint/resume: skips relations already recorded
/// in the manifest, persists every newly completed relation, and assembles
/// the final fact set in the run's canonical relation order — bit-identical
/// to an uninterrupted DiscoverFacts run with the same options.
///
/// On error (including injected faults), completed relations remain in the
/// manifest and a subsequent call resumes after them. Duplicate entries in
/// options.relations are rejected: the manifest is keyed by relation id.
///
/// options.cancel (token or deadline) stops the sweep gracefully: every
/// relation completed before the stop is already persisted in the manifest
/// (each one is flushed as it finishes), the call returns OK with those
/// relations' facts and a non-kNone stopped_reason, and a later call with
/// the same manifest path resumes from the stop point, yielding facts
/// byte-identical to an uninterrupted run.
///
/// Stats caveat: the timing fields cover only the live portion of the run;
/// counts (candidates, facts, relations) cover manifest-restored relations
/// too.
///
/// strategy=ADAPTIVE refines the checkpoint unit from relations to bandit
/// rounds: every finished round is appended to the manifest, and a resumed
/// run replays the recorded rounds (no re-ranking, scheduler state
/// re-derived exactly) before playing the rest live — so a kill mid-relation
/// loses at most one round of ranking work and the resumed fact set stays
/// bit-identical to an uninterrupted run.
Result<DiscoveryResult> DiscoverFactsResumable(const Model& model,
                                               const TripleStore& kg,
                                               const DiscoveryOptions& options,
                                               const ResumeOptions& resume,
                                               ThreadPool* pool = nullptr);

}  // namespace kgfd

#endif  // KGFD_CORE_RESUME_H_
