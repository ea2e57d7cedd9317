// Ground truth for the synthetic world: which domains are truly malicious
// (and which campaign they belong to), which are grayware (the paper's
// "suspicious" category — adware, toolbars, gaming, torrent trackers), and
// which internal hosts each campaign compromised. Evaluation modules use
// this as the omniscient reference the paper approximates with VirusTotal
// plus manual SOC investigation.
#pragma once

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/time.h"

namespace eid::sim {

enum class TruthLabel { Benign, Grayware, Malicious };

/// Everything true about one attack campaign.
struct CampaignTruth {
  int id = 0;
  util::Day start_day = 0;
  int duration_days = 1;
  std::vector<std::string> domains;   ///< all campaign domains (folded)
  std::vector<std::string> cc_domains;
  std::vector<std::string> victims;   ///< compromised internal hosts
};

class GroundTruth {
 public:
  void set_label(const std::string& domain, TruthLabel label, int campaign = -1) {
    labels_[domain] = label;
    if (campaign >= 0) campaign_of_[domain] = campaign;
  }

  void add_campaign(CampaignTruth truth) {
    campaigns_[truth.id] = std::move(truth);
  }

  TruthLabel label(const std::string& domain) const {
    auto it = labels_.find(domain);
    return it == labels_.end() ? TruthLabel::Benign : it->second;
  }

  bool is_malicious(const std::string& domain) const {
    return label(domain) == TruthLabel::Malicious;
  }

  bool is_grayware(const std::string& domain) const {
    return label(domain) == TruthLabel::Grayware;
  }

  /// Campaign id of a malicious domain, -1 if none.
  int campaign_of(const std::string& domain) const {
    auto it = campaign_of_.find(domain);
    return it == campaign_of_.end() ? -1 : it->second;
  }

  const std::map<int, CampaignTruth>& campaigns() const { return campaigns_; }

  const CampaignTruth* campaign(int id) const {
    auto it = campaigns_.find(id);
    return it == campaigns_.end() ? nullptr : &it->second;
  }

 private:
  std::unordered_map<std::string, TruthLabel> labels_;
  std::unordered_map<std::string, int> campaign_of_;
  std::map<int, CampaignTruth> campaigns_;
};

}  // namespace eid::sim
