// Domain folding (§IV-A): destinations are "folded" to their second-level
// domain (news.nbc.com -> nbc.com) on the assumption that the second level
// captures the responsible organization. For anonymized data without
// top-level information (LANL) the paper conservatively folds to the third
// level instead; the fold level is a parameter here.
#pragma once

#include <string>
#include <string_view>

namespace eid::logs {

/// Number of labels kept from the right when folding.
enum class FoldLevel { SecondLevel = 2, ThirdLevel = 3 };

/// Fold a domain name to the given level. Multi-label public suffixes that
/// commonly appear in enterprise traffic (co.uk, com.au, ...) keep one extra
/// label so "news.bbc.co.uk" folds to "bbc.co.uk" rather than "co.uk".
/// Names with fewer labels than the fold level are returned unchanged.
/// Folding is idempotent: fold(fold(x)) == fold(x).
std::string fold_domain(std::string_view domain,
                        FoldLevel level = FoldLevel::SecondLevel);

/// fold_domain written into `out` (replacing its contents), so a caller
/// that reuses `out` folds without allocating.
void fold_domain_into(std::string_view domain, FoldLevel level,
                      std::string& out);

/// True if the registrable suffix of the domain spans two labels (co.uk...).
bool has_two_label_public_suffix(std::string_view domain);

}  // namespace eid::logs
