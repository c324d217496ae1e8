#include "core/job.h"

#include "core/discovery_options.h"
#include "kg/io.h"
#include "kg/synthetic.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace kgfd {

Result<JobSpec> JobSpec::FromConfig(const ConfigFile& config) {
  JobSpec spec;
  spec.dataset_preset =
      config.GetString("dataset.preset", spec.dataset_preset);
  spec.dataset_dir = config.GetString("dataset.dir", "");
  KGFD_ASSIGN_OR_RETURN(spec.dataset_scale,
                        config.GetDouble("dataset.scale", spec.dataset_scale));

  KGFD_ASSIGN_OR_RETURN(spec.model,
                        ModelKindFromName(config.GetString(
                            "model.type", ModelKindName(spec.model))));
  KGFD_ASSIGN_OR_RETURN(spec.embedding_dim,
                        config.GetUint("model.dim", spec.embedding_dim));

  KGFD_ASSIGN_OR_RETURN(spec.trainer.epochs,
                        config.GetUint("train.epochs", 25));
  KGFD_ASSIGN_OR_RETURN(spec.trainer.batch_size,
                        config.GetUint("train.batch_size", 128));
  KGFD_ASSIGN_OR_RETURN(spec.trainer.optimizer.learning_rate,
                        config.GetDouble("train.lr", 0.03));
  const std::string default_loss =
      spec.model == ModelKind::kTransE ? "margin_ranking" : "softplus";
  KGFD_ASSIGN_OR_RETURN(
      spec.trainer.loss,
      LossKindFromName(config.GetString("train.loss", default_loss)));
  KGFD_ASSIGN_OR_RETURN(spec.trainer.negatives_per_positive,
                        config.GetUint("train.negatives", 2));
  const std::string mode =
      config.GetString("train.mode", "negative_sampling");
  if (mode == "negative_sampling") {
    spec.trainer.training_mode = TrainingMode::kNegativeSampling;
  } else if (mode == "1vsAll") {
    spec.trainer.training_mode = TrainingMode::k1vsAll;
  } else {
    return Status::InvalidArgument("unknown train.mode: " + mode);
  }
  KGFD_ASSIGN_OR_RETURN(const bool bernoulli,
                        config.GetBool("train.bernoulli", false));
  spec.trainer.corruption_scheme = bernoulli
                                       ? CorruptionScheme::kBernoulli
                                       : CorruptionScheme::kUniform;

  KGFD_ASSIGN_OR_RETURN(spec.run_eval,
                        config.GetBool("eval.enabled", true));
  KGFD_ASSIGN_OR_RETURN(spec.run_discovery,
                        config.GetBool("discovery.enabled", true));
  KGFD_ASSIGN_OR_RETURN(spec.seed, config.GetUint("seed", spec.seed));
  spec.trainer.seed = spec.seed;
  spec.discovery.strategy = DefaultSamplingStrategy();
  spec.discovery.seed = spec.seed ^ 0x5851F42D4C957F2DULL;
  KGFD_RETURN_NOT_OK(
      ApplyDiscoveryOptions(config, "discovery.", &spec.discovery));

  KGFD_RETURN_NOT_OK(config.CheckAllRead());
  return spec;
}

Result<JobResult> RunJob(const JobSpec& spec) {
  JobResult result;

  // Dataset.
  KGFD_RETURN_NOT_OK(spec.cancel.Check("job (before dataset phase)"));
  KGFD_FAIL_POINT(kFailPointJobDataset);
  if (!spec.dataset_dir.empty()) {
    KGFD_ASSIGN_OR_RETURN(Dataset loaded,
                          LoadDatasetDir(spec.dataset_dir,
                                         spec.dataset_dir));
    result.dataset = std::make_unique<Dataset>(std::move(loaded));
  } else {
    KGFD_ASSIGN_OR_RETURN(const SyntheticConfig dataset_config,
                          DatasetPresetConfig(spec.dataset_preset,
                                              spec.dataset_scale, spec.seed));
    KGFD_ASSIGN_OR_RETURN(Dataset generated,
                          GenerateSyntheticDataset(dataset_config));
    result.dataset = std::make_unique<Dataset>(std::move(generated));
  }
  result.dataset_name = result.dataset->name();
  KGFD_LOG(Debug) << "job dataset " << result.dataset_name << ": "
                  << result.dataset->train().size() << " train triples";

  // Model + training.
  KGFD_RETURN_NOT_OK(spec.cancel.Check("job (before train phase)"));
  KGFD_FAIL_POINT(kFailPointJobTrain);
  ModelConfig model_config;
  model_config.num_entities = result.dataset->num_entities();
  model_config.num_relations = result.dataset->num_relations();
  model_config.embedding_dim = spec.embedding_dim;
  TrainerConfig trainer_config = spec.trainer;
  if (spec.metrics != nullptr) trainer_config.metrics = spec.metrics;
  trainer_config.cancel = spec.cancel;
  KGFD_ASSIGN_OR_RETURN(result.model,
                        TrainModel(spec.model, model_config,
                                   result.dataset->train(),
                                   trainer_config));

  // Evaluation.
  if (spec.run_eval) {
    KGFD_RETURN_NOT_OK(spec.cancel.Check("job (before eval phase)"));
    KGFD_FAIL_POINT(kFailPointJobEval);
    EvalConfig eval_config;
    eval_config.metrics = spec.metrics;
    eval_config.cancel = spec.cancel;
    KGFD_ASSIGN_OR_RETURN(
        result.test_metrics,
        EvaluateLinkPrediction(*result.model, *result.dataset,
                               result.dataset->test(), eval_config));
  }

  // Discovery.
  if (spec.run_discovery) {
    KGFD_RETURN_NOT_OK(spec.cancel.Check("job (before discovery phase)"));
    KGFD_FAIL_POINT(kFailPointJobDiscovery);
    DiscoveryOptions discovery_options = spec.discovery;
    if (spec.metrics != nullptr) discovery_options.metrics = spec.metrics;
    discovery_options.cancel = spec.cancel;
    KGFD_ASSIGN_OR_RETURN(result.discovery,
                          DiscoverFacts(*result.model,
                                        result.dataset->train(),
                                        discovery_options));
  }
  return result;
}

}  // namespace kgfd
