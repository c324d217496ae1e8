#include "kge/evaluator.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.h"
#include "obs/span.h"
#include "util/thread_pool.h"

namespace kgfd {

LinkPredictionMetrics MetricsFromRanks(const std::vector<double>& ranks) {
  LinkPredictionMetrics m;
  m.num_ranks = ranks.size();
  if (ranks.empty()) return m;
  for (double rank : ranks) {
    m.mrr += 1.0 / rank;
    m.mean_rank += rank;
    if (rank <= 1.0) m.hits_at_1 += 1.0;
    if (rank <= 3.0) m.hits_at_3 += 1.0;
    if (rank <= 10.0) m.hits_at_10 += 1.0;
  }
  const double n = static_cast<double>(ranks.size());
  m.mrr /= n;
  m.mean_rank /= n;
  m.hits_at_1 /= n;
  m.hits_at_3 /= n;
  m.hits_at_10 /= n;
  return m;
}

double RankAgainstScores(const std::vector<double>& scores, size_t target,
                         const std::vector<char>* excluded) {
  const double target_score = scores[target];
  size_t greater = 0;
  size_t ties = 0;
  for (size_t i = 0; i < scores.size(); ++i) {
    if (i == target) continue;
    if (excluded != nullptr && (*excluded)[i] != 0) continue;
    if (scores[i] > target_score) {
      ++greater;
    } else if (scores[i] == target_score) {
      ++ties;
    }
  }
  return 1.0 + static_cast<double>(greater) +
         static_cast<double>(ties) / 2.0;
}

namespace {

/// Index of the first of the n ascending `sorted` scores that is not below
/// `v`; n when v is above them all, and 0 when v is NaN. Branch-free, since
/// which way each step goes is a coin flip on real score vectors.
size_t LowerBound(const double* sorted, size_t n, double v) {
  const double* base = sorted;
  while (n > 1) {
    const size_t half = n / 2;
    base = base[half] < v ? base + half : base;
    n -= half;
  }
  return static_cast<size_t>(base - sorted) + (*base < v ? 1 : 0);
}

}  // namespace

void RankTargetsAgainstScores(const std::vector<double>& scores,
                              const std::vector<char>* excluded,
                              const std::vector<size_t>& targets,
                              std::vector<double>* ranks,
                              RankScratch* scratch) {
  ranks->assign(targets.size(), 1.0);  // a NaN target compares to nothing
  std::vector<double>& sorted = scratch->sorted;
  sorted.clear();
  for (size_t target : targets) {
    if (!std::isnan(scores[target])) sorted.push_back(scores[target]);
  }
  if (sorted.empty()) return;
  std::sort(sorted.begin(), sorted.end());
  // == merges -0.0 with 0.0, exactly as the reference's comparisons do.
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  const size_t n = sorted.size();
  // Sentinel: the tie probe at index n (a competitor above every target)
  // never matches.
  sorted.push_back(std::numeric_limits<double>::quiet_NaN());
  const double* s = sorted.data();
  const double lowest = s[0];
  // above[p] counts competitors whose lower bound is p, i.e. that lie above
  // sorted[0..p-1]; ties[p] those equal to sorted[p].
  std::vector<uint32_t>& above = scratch->above;
  std::vector<uint32_t>& ties = scratch->ties;
  above.assign(n + 1, 0);
  ties.assign(n + 1, 0);
  const char* mask = excluded != nullptr ? excluded->data() : nullptr;
  for (size_t i = 0; i < scores.size(); ++i) {
    const double v = scores[i];
    // Below every target (or NaN): greater than none of them, equal to none.
    if (!(v >= lowest)) continue;
    if (mask != nullptr && mask[i] != 0) continue;
    const size_t p = LowerBound(s, n, v);
    ++above[p];
    ties[p] += s[p] == v ? 1 : 0;
  }
  // Suffix sums turn above[] into the number of competitors greater than
  // each sorted score.
  uint32_t running = 0;
  for (size_t p = n + 1; p-- > 0;) {
    const uint32_t here = above[p];
    above[p] = running;
    running += here;
  }
  for (size_t j = 0; j < targets.size(); ++j) {
    const double v = scores[targets[j]];
    if (std::isnan(v)) continue;
    const size_t q = LowerBound(s, n, v);
    // The pass counted the target as its own tie unless it is excluded.
    const bool counted = mask == nullptr || mask[targets[j]] == 0;
    const uint32_t own_ties = ties[q] - (counted ? 1 : 0);
    (*ranks)[j] = 1.0 + static_cast<double>(above[q]) +
                  static_cast<double>(own_ties) / 2.0;
  }
}

namespace {

/// Marks entities that form known-true corruptions of (s, r, ?) across the
/// provided stores.
void MarkKnownObjects(const std::vector<const TripleStore*>& stores,
                      EntityId s, RelationId r, std::vector<char>* excluded) {
  for (const TripleStore* store : stores) {
    for (EntityId o : store->ObjectsOf(s, r)) (*excluded)[o] = 1;
  }
}

void MarkKnownSubjects(const std::vector<const TripleStore*>& stores,
                       RelationId r, EntityId o,
                       std::vector<char>* excluded) {
  for (const TripleStore* store : stores) {
    for (EntityId s : store->SubjectsOf(r, o)) (*excluded)[s] = 1;
  }
}

/// The one ranking loop of both evaluators (each validates the model shape
/// first): scores both sides of every triple of `split` through the
/// model's batch API and writes its filtered (when config.filtered)
/// mid-tie ranks to (*ranks)[2i] (object side) and (*ranks)[2i + 1]
/// (subject side). Fixed slots keep the ranks independent
/// of how a non-null `pool` schedules the triples. A stop request
/// abandons the split and returns the stop as an error: ranks over an
/// arbitrary prefix of it would be silently misleading.
Status RankSplit(const Model& model, const Dataset& dataset,
                 const TripleStore& split, const EvalConfig& config,
                 ThreadPool* pool, std::vector<double>* ranks) {
  const std::vector<const TripleStore*> stores = {
      &dataset.train(), &dataset.valid(), &dataset.test()};
  const std::vector<Triple>& triples = split.triples();
  ranks->assign(triples.size() * 2, 0.0);
  // Triples per batch-scoring call. Small on purpose: each query needs a
  // num_entities-sized score vector, so the working set stays a few
  // hundred KB per thread while still amortizing the kernel's row loads
  // over several queries.
  constexpr size_t kEvalBatch = 8;
  ParallelFor(
      pool, triples.size(),
      [&](size_t begin, size_t end) {
        // Reused across sub-blocks: the score vectors hold their
        // num_entities capacity after the first batch call.
        std::vector<std::vector<double>> scores(kEvalBatch);
        std::vector<char> excluded;
        SideQuery queries[kEvalBatch];
        std::vector<double>* outs[kEvalBatch];
        for (size_t block = begin; block < end; block += kEvalBatch) {
          // Per-sub-block cancellation probe; the whole evaluation errors
          // out below, so abandoning this chunk's remaining slots is safe.
          if (config.cancel.StopReason() != StoppedReason::kNone) return;
          const size_t n = std::min(kEvalBatch, end - block);
          // Object side.
          for (size_t j = 0; j < n; ++j) {
            const Triple& t = triples[block + j];
            queries[j] = SideQuery{t.subject, t.relation};
            outs[j] = &scores[j];
          }
          model.ScoreObjectsBatch(queries, n, outs);
          for (size_t j = 0; j < n; ++j) {
            const Triple& t = triples[block + j];
            excluded.assign(scores[j].size(), 0);
            if (config.filtered) {
              MarkKnownObjects(stores, t.subject, t.relation, &excluded);
            }
            (*ranks)[2 * (block + j)] =
                RankAgainstScores(scores[j], t.object, &excluded);
          }
          // Subject side.
          for (size_t j = 0; j < n; ++j) {
            const Triple& t = triples[block + j];
            queries[j] = SideQuery{t.object, t.relation};
          }
          model.ScoreSubjectsBatch(queries, n, outs);
          for (size_t j = 0; j < n; ++j) {
            const Triple& t = triples[block + j];
            excluded.assign(scores[j].size(), 0);
            if (config.filtered) {
              MarkKnownSubjects(stores, t.relation, t.object, &excluded);
            }
            (*ranks)[2 * (block + j) + 1] =
                RankAgainstScores(scores[j], t.subject, &excluded);
          }
        }
      },
      &config.cancel, kEvalBatch);
  return config.cancel.Check("link-prediction evaluation");
}

}  // namespace

Result<LinkPredictionMetrics> EvaluateLinkPrediction(
    const Model& model, const Dataset& dataset, const TripleStore& split,
    const EvalConfig& config, ThreadPool* pool) {
  KGFD_RETURN_NOT_OK(ValidateModelShape(model, dataset.num_entities(),
                                        dataset.num_relations()));
  ScopedSpan span(config.metrics, kEvalSpan);
  std::vector<double> ranks;
  KGFD_RETURN_NOT_OK(RankSplit(model, dataset, split, config, pool, &ranks));
  const double elapsed = span.Stop();
  if (config.metrics != nullptr) {
    config.metrics->GetCounter(kEvalTriplesCounter)->Increment(split.size());
    if (elapsed > 0.0) {
      config.metrics->GetGauge(kEvalThroughputGauge)
          ->Set(static_cast<double>(ranks.size()) / elapsed);
    }
  }
  return MetricsFromRanks(ranks);
}

Result<StratifiedMetrics> EvaluateByPopularity(
    const Model& model, const Dataset& dataset, const TripleStore& split,
    size_t num_buckets, const EvalConfig& config) {
  if (num_buckets == 0) {
    return Status::InvalidArgument("need at least one bucket");
  }
  KGFD_RETURN_NOT_OK(ValidateModelShape(model, dataset.num_entities(),
                                        dataset.num_relations()));
  // Undirected degree per entity over the training triples.
  std::vector<uint64_t> degree(dataset.num_entities(), 0);
  for (const Triple& t : dataset.train().triples()) {
    ++degree[t.subject];
    ++degree[t.object];
  }
  // Quantile bucket edges over entities occurring in train.
  std::vector<uint64_t> present;
  for (uint64_t d : degree) {
    if (d > 0) present.push_back(d);
  }
  if (present.empty()) {
    return Status::FailedPrecondition("empty training graph");
  }
  std::sort(present.begin(), present.end());
  StratifiedMetrics result;
  result.bucket_max_degree.resize(num_buckets);
  for (size_t b = 0; b < num_buckets; ++b) {
    const size_t idx = std::min(
        present.size() - 1, (b + 1) * present.size() / num_buckets);
    result.bucket_max_degree[b] =
        b + 1 == num_buckets ? present.back() : present[idx];
  }
  auto bucket_of = [&](EntityId e) {
    const uint64_t d = degree[e];
    for (size_t b = 0; b < num_buckets; ++b) {
      if (d <= result.bucket_max_degree[b]) return b;
    }
    return num_buckets - 1;
  };

  std::vector<double> ranks;
  KGFD_RETURN_NOT_OK(RankSplit(model, dataset, split, config,
                               /*pool=*/nullptr, &ranks));
  // Each rank goes to the bucket of the entity it predicts, in split
  // order, so a single bucket folds exactly EvaluateLinkPrediction's ranks.
  std::vector<std::vector<double>> bucket_ranks(num_buckets);
  const std::vector<Triple>& triples = split.triples();
  for (size_t i = 0; i < triples.size(); ++i) {
    bucket_ranks[bucket_of(triples[i].object)].push_back(ranks[2 * i]);
    bucket_ranks[bucket_of(triples[i].subject)].push_back(ranks[2 * i + 1]);
  }
  result.buckets.reserve(num_buckets);
  for (const std::vector<double>& bucket : bucket_ranks) {
    result.buckets.push_back(MetricsFromRanks(bucket));
  }
  return result;
}

}  // namespace kgfd
