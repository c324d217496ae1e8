#include "core/resume.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <fstream>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "util/failpoint.h"
#include "util/thread_pool.h"

namespace kgfd {
namespace {

// Version 4 is the first append-only log; earlier manifests are refused by
// version.
constexpr FramedFormat kManifestFormat{"KGFDRSUM", 4, "resume manifest"};

enum class ManifestRecord : uint8_t {
  kHeader = 1,        // the fingerprint; always the first record
  kRelationDone = 2,  // relation, num_candidates, facts
  kRound = 3,         // relation, round, arm, num_candidates, facts
};

void PutFacts(std::string* out, const std::vector<DiscoveredFact>& facts) {
  Put(out, facts.size());
  for (const DiscoveredFact& fact : facts) {
    Put(out, fact.triple.subject);
    Put(out, fact.triple.relation);
    Put(out, fact.triple.object);
    Put(out, fact.rank);
    Put(out, fact.subject_rank);
    Put(out, fact.object_rank);
  }
}

bool GetFacts(PayloadReader* in, std::vector<DiscoveredFact>* facts) {
  constexpr size_t kFactBytes = 3 * sizeof(uint32_t) + 3 * sizeof(double);
  uint64_t n = 0;
  if (!in->Get(&n) || n > in->remaining() / kFactBytes) return false;
  facts->resize(n);
  for (DiscoveredFact& fact : *facts) {
    if (!in->Get(&fact.triple.subject) ||
        !in->Get(&fact.triple.relation) ||
        !in->Get(&fact.triple.object) || !in->Get(&fact.rank) ||
        !in->Get(&fact.subject_rank) ||
        !in->Get(&fact.object_rank)) {
      return false;
    }
  }
  return true;
}

std::string EncodeHeader(const ResumeManifest& m) {
  std::string out;
  Put(&out, static_cast<uint8_t>(ManifestRecord::kHeader));
  PutString(&out, m.model_name);
  Put(&out, m.model_param_hash);
  Put(&out, m.num_entities);
  Put(&out, m.num_relations);
  Put(&out, m.num_triples);
  Put(&out, m.seed);
  PutString(&out, m.strategy);
  Put(&out, m.top_n);
  Put(&out, m.max_candidates);
  Put(&out, m.max_iterations);
  Put(&out, m.filtered_ranking);
  Put(&out, m.cache_weights);
  Put(&out, m.type_filter);
  Put(&out, m.rank_aggregation);
  Put(&out, m.adaptive_rounds);
  Put(&out, m.adaptive_exploration);
  Put(&out, m.relations.size());
  for (RelationId r : m.relations) Put(&out, r);
  return out;
}

bool DecodeHeader(PayloadReader* in, ResumeManifest* m) {
  uint64_t num_relations = 0;
  if (!in->GetString(&m->model_name) || !in->Get(&m->model_param_hash) ||
      !in->Get(&m->num_entities) || !in->Get(&m->num_relations) ||
      !in->Get(&m->num_triples) || !in->Get(&m->seed) ||
      !in->GetString(&m->strategy) || !in->Get(&m->top_n) ||
      !in->Get(&m->max_candidates) || !in->Get(&m->max_iterations) ||
      !in->Get(&m->filtered_ranking) || !in->Get(&m->cache_weights) ||
      !in->Get(&m->type_filter) || !in->Get(&m->rank_aggregation) ||
      !in->Get(&m->adaptive_rounds) ||
      !in->Get(&m->adaptive_exploration) ||
      !in->Get(&num_relations) ||
      num_relations > in->remaining() / sizeof(uint32_t)) {
    return false;
  }
  m->relations.resize(num_relations);
  for (RelationId& r : m->relations) {
    if (!in->Get(&r)) return false;
  }
  return true;
}

/// Applies one manifest record in log order. Refuses (ending the replay
/// there) anything a well-formed log cannot hold: a first record that is
/// not the header or a second header, a relation finished twice, a round
/// out of order or for a finished relation, a malformed payload.
bool ApplyRecord(std::string_view payload, bool* have_header,
                 ResumeManifest* m) {
  PayloadReader in{payload};
  uint8_t type = 0;
  if (!in.Get(&type)) return false;
  if (type == static_cast<uint8_t>(ManifestRecord::kHeader)) {
    if (*have_header || !DecodeHeader(&in, m)) return false;
    *have_header = true;
    return in.remaining() == 0;
  }
  RelationId relation = 0;
  if (!*have_header || !in.Get(&relation)) return false;
  for (const RelationCheckpointEntry& done : m->done) {
    if (done.relation == relation) return false;
  }
  if (type == static_cast<uint8_t>(ManifestRecord::kRelationDone)) {
    RelationCheckpointEntry entry;
    entry.relation = relation;
    if (!in.Get(&entry.num_candidates) || !GetFacts(&in, &entry.facts) ||
        in.remaining() != 0) {
      return false;
    }
    m->done.push_back(std::move(entry));
    // A finished relation's rounds are subsumed by its done record.
    std::erase_if(m->partial, [relation](const AdaptiveRelationPartial& p) {
      return p.relation == relation;
    });
    return true;
  }
  if (type != static_cast<uint8_t>(ManifestRecord::kRound)) return false;
  static_assert(sizeof(size_t) == sizeof(uint64_t));
  AdaptiveRoundRecord round;
  if (!in.Get(&round.round) || !in.GetString(&round.arm) ||
      !in.Get(&round.num_candidates) || !GetFacts(&in, &round.facts) ||
      in.remaining() != 0) {
    return false;
  }
  auto partial = std::find_if(
      m->partial.begin(), m->partial.end(),
      [relation](const AdaptiveRelationPartial& p) {
        return p.relation == relation;
      });
  const bool first = partial == m->partial.end();
  // Rounds replay through the scheduler by index, so index == round.
  if (round.round != (first ? 0 : partial->rounds.size())) return false;
  if (first) partial = m->partial.insert(partial, {relation, {}});
  partial->rounds.push_back(std::move(round));
  return true;
}

/// Replays a whole manifest log through `replay` (ReadFramedFile or
/// FramedLog::Open) into a fresh manifest.
template <typename Replay>
Result<ResumeManifest> ReplayManifest(const std::string& path,
                                      const Replay& replay) {
  KGFD_FAIL_POINT(kFailPointResumeLoad);
  ResumeManifest m;
  bool have_header = false;
  KGFD_RETURN_NOT_OK(replay([&](std::string_view payload) {
    return ApplyRecord(payload, &have_header, &m);
  }));
  if (!have_header) {
    return Status::IoError(
        "resume manifest header record is truncated or fails its checksum "
        "(delete the manifest to start over): " +
        path);
  }
  return m;
}

bool FileExists(const std::string& path) {
  return std::ifstream(path).good();
}

}  // namespace

uint64_t HashModelParameters(Model* model) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix_bytes = [&h](const void* data, size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 0x100000001b3ULL;
    }
  };
  for (const NamedTensor& p : model->Parameters()) {
    mix_bytes(p.name.data(), p.name.size());
    const uint64_t rows = p.tensor->rows();
    const uint64_t cols = p.tensor->cols();
    mix_bytes(&rows, sizeof(rows));
    mix_bytes(&cols, sizeof(cols));
    mix_bytes(p.tensor->flat(), p.tensor->size() * sizeof(float));
  }
  // Quantized entity tables live outside Parameters(); mix their
  // fingerprint so float and quantized loads of one checkpoint never share
  // a resume/cache identity.
  const uint64_t storage = model->StorageFingerprint();
  if (storage != 0) mix_bytes(&storage, sizeof(storage));
  return h;
}

ResumeManifest MakeManifestHeader(Model* model, const TripleStore& kg,
                                  const DiscoveryOptions& options,
                                  const std::vector<RelationId>& relations) {
  ResumeManifest m;
  m.model_name = model->name();
  m.model_param_hash = HashModelParameters(model);
  m.num_entities = kg.num_entities();
  m.num_relations = kg.num_relations();
  m.num_triples = kg.size();
  m.seed = options.seed;
  m.strategy = SamplingStrategyName(options.strategy);
  m.top_n = options.top_n;
  m.max_candidates = options.max_candidates;
  m.max_iterations = options.max_iterations;
  m.filtered_ranking = options.filtered_ranking ? 1 : 0;
  m.cache_weights = options.cache_weights ? 1 : 0;
  m.type_filter = options.type_filter ? 1 : 0;
  m.rank_aggregation = static_cast<uint8_t>(options.rank_aggregation);
  if (options.strategy == SamplingStrategy::kAdaptive) {
    m.adaptive_rounds = options.adaptive_rounds;
    m.adaptive_exploration = options.adaptive_exploration;
  }
  m.relations = relations;
  return m;
}

Status CheckManifestCompatible(const ResumeManifest& loaded,
                               const ResumeManifest& expected) {
  auto mismatch = [](const std::string& field) {
    return Status::FailedPrecondition(
        "resume manifest does not match this run: " + field +
        " differs (delete the manifest to start over)");
  };
  if (loaded.model_name != expected.model_name) return mismatch("model");
  if (loaded.model_param_hash != expected.model_param_hash) {
    return mismatch("model parameters");
  }
  if (loaded.num_entities != expected.num_entities ||
      loaded.num_relations != expected.num_relations ||
      loaded.num_triples != expected.num_triples) {
    return mismatch("graph shape");
  }
  if (loaded.seed != expected.seed) return mismatch("seed");
  if (loaded.strategy != expected.strategy) return mismatch("strategy");
  if (loaded.top_n != expected.top_n) return mismatch("top_n");
  if (loaded.max_candidates != expected.max_candidates) {
    return mismatch("max_candidates");
  }
  if (loaded.max_iterations != expected.max_iterations) {
    return mismatch("max_iterations");
  }
  if (loaded.filtered_ranking != expected.filtered_ranking) {
    return mismatch("filtered_ranking");
  }
  if (loaded.cache_weights != expected.cache_weights) {
    return mismatch("cache_weights");
  }
  if (loaded.type_filter != expected.type_filter) {
    return mismatch("type_filter");
  }
  if (loaded.rank_aggregation != expected.rank_aggregation) {
    return mismatch("rank_aggregation");
  }
  if (loaded.adaptive_rounds != expected.adaptive_rounds) {
    return mismatch("adaptive_rounds");
  }
  // Bit comparison: any numeric difference in the exploration constant, even
  // one a tolerance would forgive, yields a different bandit schedule.
  if (std::bit_cast<uint64_t>(loaded.adaptive_exploration) !=
      std::bit_cast<uint64_t>(expected.adaptive_exploration)) {
    return mismatch("adaptive_exploration");
  }
  if (loaded.relations != expected.relations) {
    return mismatch("relation list");
  }
  return Status::OK();
}

Result<ResumeManifest> LoadResumeManifest(const std::string& path) {
  return ReplayManifest(path, [&path](const FramedRecordFn& on_record) {
    return ReadFramedFile(path, kManifestFormat, on_record).status();
  });
}

Result<std::unique_ptr<ResumeManifestWriter>> ResumeManifestWriter::Create(
    const std::string& path, const ResumeManifest& header) {
  KGFD_FAIL_POINT(kFailPointResumeSave);
  KGFD_ASSIGN_OR_RETURN(
      std::unique_ptr<FramedLog> log,
      FramedLog::Create(path, kManifestFormat, {EncodeHeader(header)},
                        /*sync=*/false,
                        FramedLog::Options{false, kFailPointResumeSave}));
  return std::unique_ptr<ResumeManifestWriter>(
      new ResumeManifestWriter(std::move(log)));
}

Result<std::unique_ptr<ResumeManifestWriter>> ResumeManifestWriter::Open(
    const std::string& path, ResumeManifest* manifest) {
  std::unique_ptr<FramedLog> log;
  KGFD_ASSIGN_OR_RETURN(
      *manifest,
      ReplayManifest(path, [&](const FramedRecordFn& on_record) {
        uint64_t truncated_bytes = 0;
        auto opened = FramedLog::Open(
            path, kManifestFormat, on_record,
            FramedLog::Options{false, kFailPointResumeSave},
            &truncated_bytes);
        if (opened.ok()) log = std::move(opened).value();
        return opened.status();
      }));
  return std::unique_ptr<ResumeManifestWriter>(
      new ResumeManifestWriter(std::move(log)));
}

Status ResumeManifestWriter::AppendRelation(
    const RelationCheckpointEntry& entry) {
  std::string payload;
  Put(&payload, static_cast<uint8_t>(ManifestRecord::kRelationDone));
  Put(&payload, entry.relation);
  Put(&payload, entry.num_candidates);
  PutFacts(&payload, entry.facts);
  return log_->Append(payload);
}

Status ResumeManifestWriter::AppendRound(RelationId relation,
                                         const AdaptiveRoundRecord& round) {
  std::string payload;
  Put(&payload, static_cast<uint8_t>(ManifestRecord::kRound));
  Put(&payload, relation);
  Put(&payload, round.round);
  PutString(&payload, round.arm);
  Put(&payload, round.num_candidates);
  PutFacts(&payload, round.facts);
  return log_->Append(payload);
}

Result<DiscoveryResult> DiscoverFactsResumable(const Model& model,
                                               const TripleStore& kg,
                                               const DiscoveryOptions& options,
                                               const ResumeOptions& resume,
                                               ThreadPool* pool) {
  if (resume.manifest_path.empty()) {
    return Status::InvalidArgument("ResumeOptions::manifest_path is empty");
  }
  // Validate up front even though DiscoverFacts validates again: a manifest
  // with every relation already done skips the live sweep below, and invalid
  // options must not read as a successful no-op resume.
  KGFD_RETURN_NOT_OK(ValidateDiscoveryOptions(options, kg));
  std::vector<RelationId> relations = options.relations;
  if (relations.empty()) relations = kg.UsedRelations();
  {
    std::unordered_set<RelationId> unique(relations.begin(), relations.end());
    if (unique.size() != relations.size()) {
      return Status::InvalidArgument(
          "resumable discovery requires unique relation ids (the manifest "
          "is keyed by relation)");
    }
  }

  // Parameters() is non-const in the Model interface but read-only here.
  Model* mutable_model = const_cast<Model*>(&model);
  const ResumeManifest header =
      MakeManifestHeader(mutable_model, kg, options, relations);

  ResumeManifest manifest;
  std::unique_ptr<ResumeManifestWriter> writer;
  if (FileExists(resume.manifest_path)) {
    KGFD_ASSIGN_OR_RETURN(
        writer, ResumeManifestWriter::Open(resume.manifest_path, &manifest));
    KGFD_RETURN_NOT_OK(CheckManifestCompatible(manifest, header));
  } else {
    manifest = header;
    // Persist the header immediately: catches an unwritable manifest path
    // before hours of work, and makes a restart-before-first-relation
    // resumable too.
    KGFD_RETURN_NOT_OK(RetryStatus(
        resume.save_retry, "CreateResumeManifest", [&]() {
          auto created =
              ResumeManifestWriter::Create(resume.manifest_path, header);
          if (created.ok()) writer = std::move(created).value();
          return created.status();
        }));
  }

  std::unordered_map<RelationId, const RelationCheckpointEntry*> done;
  for (const RelationCheckpointEntry& entry : manifest.done) {
    done.emplace(entry.relation, &entry);
  }
  std::vector<RelationId> remaining;
  remaining.reserve(relations.size());
  for (RelationId r : relations) {
    if (done.find(r) == done.end()) remaining.push_back(r);
  }

  // Completed relations and rounds are appended to the manifest as they
  // finish; the lock serializes appends across pool workers. After the
  // first failed append nothing more is appended: a later round behind a
  // missing one would break the manifest's round order.
  std::mutex manifest_mu;
  Status save_error;  // first persistence failure, surfaced after the run
  auto append_locked = [&](const std::function<Status()>& append) {
    if (!save_error.ok()) return;
    save_error =
        RetryStatus(resume.save_retry, "AppendResumeManifest", append);
  };
  DiscoveryOptions live_options = options;
  live_options.relations = remaining;

  // ADAPTIVE: hand the restored round history of still-unfinished relations
  // to DiscoverFacts for replay, and persist every live round as it
  // finishes — rounds, not relations, are the checkpoint unit. Live rounds
  // continue the recorded ones, so their round numbers extend the log's.
  AdaptiveResumeState adaptive_state;
  const auto chained_round_callback = options.on_round_complete;
  if (options.strategy == SamplingStrategy::kAdaptive) {
    for (AdaptiveRelationPartial& partial : manifest.partial) {
      adaptive_state.rounds.emplace(partial.relation,
                                    std::move(partial.rounds));
    }
    live_options.adaptive_resume = &adaptive_state;
    live_options.on_round_complete =
        [&](AdaptiveRoundCompletion&& completion) {
          {
            std::lock_guard<std::mutex> lock(manifest_mu);
            append_locked([&] {
              return writer->AppendRound(completion.relation,
                                         completion.record);
            });
          }
          if (chained_round_callback) {
            chained_round_callback(std::move(completion));
          }
        };
  }

  const auto chained_callback = options.on_relation_complete;
  live_options.on_relation_complete = [&](RelationCompletion&& completion) {
    {
      std::lock_guard<std::mutex> lock(manifest_mu);
      RelationCheckpointEntry entry;
      entry.relation = completion.relation;
      entry.num_candidates = completion.num_candidates;
      entry.facts = completion.facts;
      append_locked([&] { return writer->AppendRelation(entry); });
      manifest.done.push_back(std::move(entry));
    }
    if (chained_callback) chained_callback(std::move(completion));
  };

  DiscoveryResult live;
  if (!remaining.empty()) {
    KGFD_ASSIGN_OR_RETURN(live, DiscoverFacts(model, kg, live_options, pool));
  } else {
    KGFD_RETURN_NOT_OK(
        ValidateModelShape(model, kg.num_entities(), kg.num_relations()));
  }
  KGFD_RETURN_NOT_OK(save_error);

  // Assemble the final fact set in canonical relation order from the
  // manifest, which now holds every relation: restored ones from before the
  // restart, live ones appended by the callback. This reproduces the exact
  // concatenation order of an uninterrupted run.
  done.clear();
  for (const RelationCheckpointEntry& entry : manifest.done) {
    done.emplace(entry.relation, &entry);
  }
  DiscoveryResult result;
  result.stats = live.stats;  // timing covers the live portion only
  result.stopped_reason = live.stopped_reason;
  result.stats.num_candidates = 0;
  result.stats.num_relations_processed = 0;
  result.stats.num_relations_skipped = 0;
  for (RelationId r : relations) {
    auto it = done.find(r);
    if (it == done.end()) {
      // On a stopped run, unfinished relations are expected: their facts
      // are simply absent until a later --resume regenerates them. On a
      // completed run a hole means the manifest and the sweep disagree.
      if (result.stopped_reason != StoppedReason::kNone) {
        ++result.stats.num_relations_skipped;
        continue;
      }
      return Status::Internal("resume manifest missing completed relation " +
                              std::to_string(r));
    }
    const RelationCheckpointEntry& entry = *it->second;
    result.facts.insert(result.facts.end(), entry.facts.begin(),
                        entry.facts.end());
    result.stats.num_candidates += entry.num_candidates;
    ++result.stats.num_relations_processed;
  }
  result.stats.num_facts = result.facts.size();
  return result;
}

}  // namespace kgfd
