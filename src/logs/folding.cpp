#include "logs/folding.h"

#include <array>

namespace eid::logs {
namespace {

// A deliberately small public-suffix sample: enough for realistic folding of
// enterprise traffic without shipping the full PSL. Checked against the last
// two labels of a name.
constexpr std::array<std::string_view, 12> kTwoLabelSuffixes = {
    "co.uk", "org.uk", "ac.uk", "gov.uk", "com.au", "net.au",
    "co.jp", "com.br", "com.cn", "co.in", "co.kr", "com.mx",
};

}  // namespace

bool has_two_label_public_suffix(std::string_view domain) {
  // The last two labels, compared case-sensitively; empty labels count.
  const std::size_t last_dot = domain.rfind('.');
  if (last_dot == std::string_view::npos) return false;
  const std::size_t second_dot =
      last_dot == 0 ? std::string_view::npos : domain.rfind('.', last_dot - 1);
  const std::string_view tail = second_dot == std::string_view::npos
                                    ? domain
                                    : domain.substr(second_dot + 1);
  for (const auto suffix : kTwoLabelSuffixes) {
    if (tail == suffix) return true;
  }
  return false;
}

void fold_domain_into(std::string_view domain, FoldLevel level,
                      std::string& out) {
  // Strip root-label dots entirely so degenerate inputs (".", "..") fold
  // to the empty string and folding stays idempotent.
  while (!domain.empty() && domain.back() == '.') domain.remove_suffix(1);
  while (!domain.empty() && domain.front() == '.') domain.remove_prefix(1);
  std::size_t keep = static_cast<std::size_t>(level);
  if (has_two_label_public_suffix(domain)) ++keep;
  // Keep the text after the keep-th dot from the right (all of it when
  // there are fewer labels than that), lower-cased. Empty labels at the
  // front of the kept part are dropped with their dots.
  std::size_t begin = domain.size();
  std::size_t dots = 0;
  while (begin > 0) {
    if (domain[begin - 1] == '.' && ++dots == keep) break;
    --begin;
  }
  while (begin < domain.size() && domain[begin] == '.') ++begin;
  out.assign(domain.substr(begin));
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
}

std::string fold_domain(std::string_view domain, FoldLevel level) {
  std::string out;
  fold_domain_into(domain, level, out);
  return out;
}

}  // namespace eid::logs
