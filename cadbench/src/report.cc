#include "report.h"

#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

namespace cadbench {

void Outcome::Add(const std::string& name, double value,
                  const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
}

void Outcome::Fail(const std::string& why, uint64_t count) {
  Log("FAILED: " + why);
  correct_ = false;
  failed_ += count;
}

void Outcome::Print(std::ostream* out) const {
  std::ostringstream line;
  line << "{\"correct\": " << (correct_ ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& metric = metrics_[i];
    // JSON has no NaN or infinity; a metric that could not be measured is 0.
    const double value = std::isfinite(metric.value) ? metric.value : 0.0;
    line << (i == 0 ? "" : ", ") << "\"" << metric.name
         << "\": {\"value\": " << ExactDouble(value) << ", \"unit\": \""
         << metric.unit << "\"}";
  }
  line << "}}";
  (*out) << line.str() << std::endl;
}

void Log(const std::string& message) {
  std::cerr << "cadbench: " << message << std::endl;
}

bool CountersMatchEarlierRuns(const std::string& key, const Counters& counters,
                              std::string* difference) {
  std::ostringstream encoded;
  for (const auto& [name, value] : counters) {
    encoded << name << " " << value << "\n";
  }
  const std::string path = "counters-" + key + ".txt";
  const cad::Result<std::string> earlier = ReadFile(path);
  if (earlier.ok()) {
    if (*earlier == encoded.str()) return true;
    std::istringstream before(*earlier);
    std::string name;
    uint64_t value = 0;
    while (before >> name >> value) {
      const auto now = counters.find(name);
      if (now == counters.end() || now->second != value) {
        *difference = name + ": earlier run " + std::to_string(value) +
                      ", this run " +
                      (now == counters.end() ? std::string("absent")
                                             : std::to_string(now->second));
        return false;
      }
    }
    *difference = "counter set changed";
    return false;
  }
  (void)WriteFile(path, encoded.str());
  return true;
}

cad::Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return cad::Status::IoError("cannot open " + path);
  std::ostringstream contents;
  contents << in.rdbuf();
  if (in.bad()) return cad::Status::IoError("cannot read " + path);
  return contents.str();
}

cad::Status WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
  out.flush();
  if (!out.good()) return cad::Status::IoError("cannot write " + path);
  return cad::Status::OK();
}

uint64_t FileSize(const std::string& path) {
  std::error_code error;
  const uintmax_t size = std::filesystem::file_size(path, error);
  return error ? 0 : static_cast<uint64_t>(size);
}

void RemoveTree(const std::string& path) {
  std::error_code error;
  std::filesystem::remove_all(path, error);
}

std::string ExactDouble(double value) {
  char buffer[64];
  const std::to_chars_result written =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, written.ptr);
}

}  // namespace cadbench
