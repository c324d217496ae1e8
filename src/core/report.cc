#include "core/report.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>

#include "util/string_util.h"

namespace kgfd {

std::vector<RelationDiscoverySummary> SummarizeByRelation(
    const std::vector<DiscoveredFact>& facts) {
  std::map<RelationId, std::vector<const DiscoveredFact*>> grouped;
  for (const DiscoveredFact& f : facts) {
    grouped[f.triple.relation].push_back(&f);
  }
  std::vector<RelationDiscoverySummary> out;
  out.reserve(grouped.size());
  for (const auto& [relation, group] : grouped) {
    RelationDiscoverySummary s;
    s.relation = relation;
    s.num_facts = group.size();
    s.best_rank = group.front()->rank;
    for (const DiscoveredFact* f : group) {
      s.best_rank = std::min(s.best_rank, f->rank);
      s.mean_rank += f->rank;
      s.mrr += 1.0 / f->rank;
    }
    s.mean_rank /= static_cast<double>(group.size());
    s.mrr /= static_cast<double>(group.size());
    out.push_back(s);
  }
  return out;
}

namespace {

std::string NameOf(const Vocabulary& vocab, uint32_t id) {
  auto result = vocab.Name(id);
  return result.ok() ? std::move(result).value() : std::to_string(id);
}

}  // namespace

std::string FormatFactsTsv(const std::vector<DiscoveredFact>& facts,
                           const Vocabulary& entities,
                           const Vocabulary& relations) {
  // Default ostream double formatting, deliberately: it matches what every
  // historical writer used, so goldens stay byte-stable.
  std::ostringstream out;
  for (const DiscoveredFact& f : facts) {
    out << NameOf(entities, f.triple.subject) << '\t'
        << NameOf(relations, f.triple.relation) << '\t'
        << NameOf(entities, f.triple.object) << '\t' << f.rank << '\n';
  }
  return std::move(out).str();
}

Status WriteFactsTsv(const std::string& path,
                     const std::vector<DiscoveredFact>& facts,
                     const Vocabulary& entities,
                     const Vocabulary& relations) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  const std::string tsv = FormatFactsTsv(facts, entities, relations);
  out.write(tsv.data(), static_cast<std::streamsize>(tsv.size()));
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Result<std::vector<DiscoveredFact>> ReadFactsTsv(const std::string& path,
                                                 Vocabulary* entities,
                                                 Vocabulary* relations) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open: " + path);
  std::vector<DiscoveredFact> out;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const std::vector<std::string> fields = Split(line, '\t');
    if (fields.size() != 4) {
      return Status::InvalidArgument(path + ":" + std::to_string(line_no) +
                                     ": expected 4 tab-separated fields");
    }
    DiscoveredFact fact;
    fact.triple.subject = entities->AddOrGet(Trim(fields[0]));
    fact.triple.relation = relations->AddOrGet(Trim(fields[1]));
    fact.triple.object = entities->AddOrGet(Trim(fields[2]));
    const Result<double> rank = ParseDouble(Trim(fields[3]));
    if (!rank.ok()) {
      return Status::InvalidArgument(path + ":" + std::to_string(line_no) +
                                     ": rank " + rank.status().message());
    }
    fact.rank = rank.value();
    out.push_back(fact);
  }
  return out;
}

}  // namespace kgfd
