#ifndef KGFD_CORE_JOB_H_
#define KGFD_CORE_JOB_H_

#include <memory>
#include <string>

#include "core/discovery.h"
#include "kg/dataset.h"
#include "kge/evaluator.h"
#include "kge/model.h"
#include "kge/trainer.h"
#include "util/config_file.h"
#include "util/status.h"

namespace kgfd {

/// A declarative experiment job — the kgfd analogue of LibKGE's YAML job
/// definitions (the workflow the paper runs its study on): one config file
/// describes dataset, model, training and (optionally) discovery, and
/// RunJob executes the whole pipeline. Recognized keys:
///
///   dataset.preset    = FB15K-237 | WN18RR | YAGO3-10 | CoDEx-L
///   dataset.dir       = <path>      # alternative: load TSV directory
///   dataset.scale     = 100         # preset downscale divisor
///   model.type        = TransE | DistMult | ComplEx | RESCAL | HolE | ConvE
///   model.dim         = 32
///   train.epochs      = 25
///   train.batch_size  = 128
///   train.lr          = 0.03
///   train.loss        = margin_ranking | bce | softplus
///   train.negatives   = 2
///   train.mode        = negative_sampling | 1vsAll
///   train.bernoulli   = false
///   eval.enabled      = true
///   discovery.enabled = true
///   discovery.<knob>  = ...         # any row of core/discovery_options.h
///   seed              = 42          # discovery.seed defaults to
///                                   # seed ^ 0x5851F42D4C957F2D
struct JobSpec {
  std::string dataset_preset = "FB15K-237";
  std::string dataset_dir;       // non-empty overrides the preset
  double dataset_scale = 100.0;
  ModelKind model = ModelKind::kTransE;
  size_t embedding_dim = 32;
  TrainerConfig trainer;
  bool run_eval = true;
  bool run_discovery = true;
  DiscoveryOptions discovery;
  uint64_t seed = 42;
  /// When set, RunJob wires this registry into training, evaluation and
  /// discovery (see src/obs/); not a config-file key — set it in code.
  MetricsRegistry* metrics = nullptr;
  /// When stoppable, RunJob threads this context into every phase (trainer,
  /// evaluators, discovery) and checks it between phases. A stop during
  /// training degrades gracefully (partial model, job continues only if the
  /// stop was observed *after* the phase boundary — otherwise RunJob
  /// returns Cancelled/DeadlineExceeded); a stop during eval or discovery
  /// surfaces that phase's semantics. Not a config-file key — set it in
  /// code.
  CancelContext cancel;

  /// Parses a config file; unknown keys are an error (typo safety).
  static Result<JobSpec> FromConfig(const ConfigFile& config);
};

/// Everything a job produces.
struct JobResult {
  std::string dataset_name;
  std::unique_ptr<Dataset> dataset;
  std::unique_ptr<Model> model;
  LinkPredictionMetrics test_metrics;  // valid iff spec.run_eval
  DiscoveryResult discovery;           // valid iff spec.run_discovery
};

/// Runs dataset acquisition -> training -> (evaluation) -> (discovery).
Result<JobResult> RunJob(const JobSpec& spec);

}  // namespace kgfd

#endif  // KGFD_CORE_JOB_H_
