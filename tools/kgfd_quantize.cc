/// kgfd_quantize: converts a float checkpoint to quantized entity storage.
///
///   kgfd_quantize --in model.bin --out model.int8.bin [--dtype int8|int16]
///   kgfd_quantize --in model.bin --info
///
/// The output is a format-v3 checkpoint whose entity table holds int8 or
/// int16 codes plus per-row affine parameters (see kge/embedding_store.h);
/// relations and every other tensor stay float. Quantized checkpoints are
/// scoring-only and load on both the ram and mmap backends. --info prints
/// a checkpoint's directory without converting anything.

#include <cstdio>
#include <string>

#include "kgfd.h"
#include "util/flags.h"

namespace kgfd {
namespace {

int PrintInfo(const std::string& path) {
  auto info = InspectCheckpoint(path);
  if (!info.ok()) {
    std::fprintf(stderr, "%s\n", info.status().ToString().c_str());
    return 1;
  }
  const CheckpointInfo& ck = info.value();
  std::printf("checkpoint: %s\n", path.c_str());
  std::printf("format:     v%u\n", ck.version);
  std::printf("model:      %s\n", ck.model_name.c_str());
  std::printf("entities:   %zu\n", ck.config.num_entities);
  std::printf("relations:  %zu\n", ck.config.num_relations);
  std::printf("dim:        %zu\n", ck.config.embedding_dim);
  for (const CheckpointTensorInfo& t : ck.tensors) {
    std::printf("tensor %-12s %s %llu x %llu  payload %llu+%llu",
                t.name.c_str(), EmbeddingDtypeName(t.dtype),
                static_cast<unsigned long long>(t.rows),
                static_cast<unsigned long long>(t.cols),
                static_cast<unsigned long long>(t.payload_offset),
                static_cast<unsigned long long>(t.payload_size));
    if (t.quant_size != 0) {
      std::printf("  quant %llu+%llu",
                  static_cast<unsigned long long>(t.quant_offset),
                  static_cast<unsigned long long>(t.quant_size));
    }
    std::printf("\n");
  }
  return 0;
}

int Main(const Flags& flags) {
  const std::string in = flags.GetString("in", "");
  const bool info = flags.GetBool("info", false);
  const std::string out = flags.GetString("out", "");
  const std::string dtype_name = flags.GetString("dtype", "int8");
  flags.config().CheckAllRead().AbortIfNotOk("command line");
  if (in.empty()) {
    std::fprintf(stderr,
                 "usage: kgfd_quantize --in FILE --out FILE "
                 "[--dtype int8|int16]\n"
                 "       kgfd_quantize --in FILE --info\n");
    return 1;
  }
  if (info) return PrintInfo(in);

  if (out.empty()) {
    std::fprintf(stderr, "--out is required (or use --info)\n");
    return 1;
  }
  auto dtype = EmbeddingDtypeFromName(dtype_name);
  if (!dtype.ok() || dtype.value() == EmbeddingDtype::kFloat32) {
    std::fprintf(stderr, "--dtype must be int8 or int16\n");
    return 1;
  }

  CheckpointLoadOptions options;  // ram: quantization reads every float row
  auto loaded = LoadModelWithConfig(in, options);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  const Status saved = SaveQuantizedModel(loaded.value().model.get(),
                                          loaded.value().config,
                                          dtype.value(), out);
  if (!saved.ok()) {
    std::fprintf(stderr, "%s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("quantized %s -> %s (%s entities)\n", in.c_str(), out.c_str(),
              EmbeddingDtypeName(dtype.value()));
  return 0;
}

}  // namespace
}  // namespace kgfd

int main(int argc, char** argv) {
  auto flags = kgfd::Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 1;
  }
  return kgfd::Main(flags.value());
}
