// The harness's raw output: named scalar values, number samples and
// string lists, written as one flat JSON object for run.py to reduce.
// Keys are dotted names ("prune.QM06.s"); run.py owns every statistic.

#ifndef PERFBENCH_RECORD_H_
#define PERFBENCH_RECORD_H_

#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Record {
 public:
  void Set(const std::string& key, double value) { values_[key] = value; }
  void SetString(const std::string& key, const std::string& value) {
    strings_[key] = value;
  }
  void Add(const std::string& key, double sample) {
    samples_[key].push_back(sample);
  }
  void AddString(const std::string& key, const std::string& value) {
    lists_[key].push_back(value);
  }

  std::string ToJson() const;

 private:
  std::map<std::string, double> values_;
  std::map<std::string, std::string> strings_;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, std::vector<std::string>> lists_;
};

}  // namespace perfbench

#endif  // PERFBENCH_RECORD_H_
