#include "eval/trace.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <istream>
#include <ostream>
#include <sstream>

#include "eval/metrics.h"
#include "quadtree/shared_node_arena.h"

namespace mlq {

void WriteTrace(std::ostream& os, std::span<const TraceRecord> records,
                int dims) {
  os << "# mlq-trace v1 dims=" << dims << '\n';
  char buf[64];
  for (const TraceRecord& record : records) {
    assert(record.point.dims() == dims);
    for (int d = 0; d < dims; ++d) {
      std::snprintf(buf, sizeof(buf), "%.17g,", record.point[d]);
      os << buf;
    }
    std::snprintf(buf, sizeof(buf), "%.17g,%.17g\n", record.cpu_cost,
                  record.io_cost);
    os << buf;
  }
}

bool ReadTrace(std::istream& is, std::vector<TraceRecord>* records,
               std::string* error) {
  records->clear();
  std::string line;
  if (!std::getline(is, line)) {
    *error = "empty trace";
    return false;
  }
  int dims = 0;
  // Traces replay into quadtrees, so dims stops at the tree's limit.
  if (std::sscanf(line.c_str(), "# mlq-trace v1 dims=%d", &dims) != 1 ||
      dims < 1 || dims > kMaxTreeDims) {
    *error = "bad trace header (dims must be 1.." +
             std::to_string(kMaxTreeDims) + "): " + line;
    return false;
  }
  int line_number = 1;
  while (std::getline(is, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    TraceRecord record;
    record.point = Point(dims);
    std::string field;
    for (int d = 0; d < dims + 2; ++d) {
      if (!std::getline(fields, field, ',')) {
        *error = "line " + std::to_string(line_number) + ": too few fields";
        return false;
      }
      char* end = nullptr;
      const double value = std::strtod(field.c_str(), &end);
      if (end == field.c_str()) {
        *error = "line " + std::to_string(line_number) + ": bad number '" +
                 field + "'";
        return false;
      }
      if (d < dims) {
        record.point[d] = value;
      } else if (d == dims) {
        record.cpu_cost = value;
      } else {
        record.io_cost = value;
      }
    }
    if (std::getline(fields, field, ',')) {
      *error = "line " + std::to_string(line_number) + ": too many fields";
      return false;
    }
    records->push_back(record);
  }
  return true;
}

std::vector<TraceRecord> CaptureTrace(CostedUdf& udf,
                                      std::span<const Point> points) {
  std::vector<TraceRecord> records;
  records.reserve(points.size());
  for (const Point& p : points) {
    const UdfCost cost = udf.Execute(p);
    records.push_back(TraceRecord{p, cost.cpu_work, cost.io_pages});
  }
  return records;
}

double ReplayTrace(CostModel& model, std::span<const TraceRecord> records,
                   CostKind cost_kind) {
  NaeAccumulator nae;
  for (const TraceRecord& record : records) {
    const double actual =
        cost_kind == CostKind::kCpu ? record.cpu_cost : record.io_cost;
    nae.Add(model.Predict(record.point), actual);
    model.Observe(record.point, actual);
  }
  return nae.Nae();
}

double ReplayTraceBatched(CostModel& model,
                          std::span<const TraceRecord> records,
                          CostKind cost_kind, int block_size) {
  assert(block_size >= 1);
  NaeAccumulator nae;
  std::vector<Point> points;
  std::vector<CostEstimate> predictions;
  std::vector<Observation> feedback;
  for (size_t begin = 0; begin < records.size();
       begin += static_cast<size_t>(block_size)) {
    const size_t end =
        std::min(records.size(), begin + static_cast<size_t>(block_size));
    points.clear();
    feedback.clear();
    for (size_t i = begin; i < end; ++i) {
      const double actual = cost_kind == CostKind::kCpu ? records[i].cpu_cost
                                                        : records[i].io_cost;
      points.push_back(records[i].point);
      feedback.push_back({records[i].point, actual});
    }
    predictions.resize(points.size());
    model.PredictBatch(points, predictions);
    for (size_t k = 0; k < predictions.size(); ++k) {
      nae.Add(predictions[k].value, feedback[k].value);
    }
    model.ObserveBatch(feedback);
  }
  return nae.Nae();
}

void IngestTrace(CostModel& model, std::span<const TraceRecord> records,
                 CostKind cost_kind, int chunk_size) {
  assert(chunk_size >= 1);
  std::vector<Observation> chunk;
  chunk.reserve(static_cast<size_t>(chunk_size));
  for (size_t begin = 0; begin < records.size();
       begin += static_cast<size_t>(chunk_size)) {
    const size_t end =
        std::min(records.size(), begin + static_cast<size_t>(chunk_size));
    chunk.clear();
    for (size_t i = begin; i < end; ++i) {
      chunk.push_back({records[i].point, cost_kind == CostKind::kCpu
                                             ? records[i].cpu_cost
                                             : records[i].io_cost});
    }
    model.ObserveBatch(chunk);
  }
}

}  // namespace mlq
