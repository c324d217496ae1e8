#ifndef KGFD_KGFD_H_
#define KGFD_KGFD_H_

/// Umbrella header for the kgfd public API: knowledge-graph storage,
/// synthetic benchmark datasets, graph analytics, knowledge-graph embedding
/// models with training/evaluation, the fact-discovery algorithm with its
/// sampling strategies (including the adaptive bandit subsystem), and the
/// discovery-as-a-service HTTP server.

#include "adaptive/scheduler.h"       // IWYU pragma: export
#include "adaptive/score_sketch.h"    // IWYU pragma: export
#include "core/discovery.h"           // IWYU pragma: export
#include "core/discovery_cache.h"     // IWYU pragma: export
#include "core/discovery_options.h"   // IWYU pragma: export
#include "core/embedding_analysis.h"  // IWYU pragma: export
#include "core/experiment.h"          // IWYU pragma: export
#include "core/job.h"                 // IWYU pragma: export
#include "core/report.h"              // IWYU pragma: export
#include "core/resume.h"              // IWYU pragma: export
#include "core/strategy.h"            // IWYU pragma: export
#include "core/type_filter.h"         // IWYU pragma: export
#include "graph/adjacency.h"   // IWYU pragma: export
#include "graph/metrics.h"     // IWYU pragma: export
#include "graph/pagerank.h"    // IWYU pragma: export
#include "kg/dataset.h"        // IWYU pragma: export
#include "kg/io.h"             // IWYU pragma: export
#include "kg/kg_stats.h"       // IWYU pragma: export
#include "kg/leakage.h"        // IWYU pragma: export
#include "kg/relation_stats.h" // IWYU pragma: export
#include "kg/synthetic.h"      // IWYU pragma: export
#include "kg/triple_store.h"   // IWYU pragma: export
#include "kg/types.h"          // IWYU pragma: export
#include "kg/vocab.h"          // IWYU pragma: export
#include "kge/checkpoint.h"       // IWYU pragma: export
#include "kge/embedding_store.h"  // IWYU pragma: export
#include "kge/evaluator.h"     // IWYU pragma: export
#include "kge/grid_search.h"   // IWYU pragma: export
#include "kge/kernels.h"       // IWYU pragma: export
#include "kge/model.h"         // IWYU pragma: export
#include "kge/trainer.h"       // IWYU pragma: export
#include "server/discovery_service.h"  // IWYU pragma: export
#include "server/http.h"               // IWYU pragma: export
#include "server/http_client.h"        // IWYU pragma: export
#include "server/http_server.h"        // IWYU pragma: export
#include "server/job_journal.h"        // IWYU pragma: export
#include "server/job_manager.h"        // IWYU pragma: export
#include "obs/export.h"        // IWYU pragma: export
#include "obs/metrics.h"       // IWYU pragma: export
#include "obs/span.h"          // IWYU pragma: export
#include "util/cancellation.h" // IWYU pragma: export
#include "util/crc32.h"        // IWYU pragma: export
#include "util/failpoint.h"    // IWYU pragma: export
#include "util/retry.h"        // IWYU pragma: export
#include "util/status.h"       // IWYU pragma: export

#endif  // KGFD_KGFD_H_
