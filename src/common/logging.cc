#include "common/logging.h"

#include <cstring>
#include <iostream>

namespace gcd2 {

namespace {

/** Strip the leading directories so messages show a repo-relative path. */
const char *
baseName(const char *path)
{
    const char *slash = std::strrchr(path, '/');
    return slash ? slash + 1 : path;
}

} // namespace

namespace detail {

std::string
formatMessage(const char *kind, const char *file, int line,
              const std::string &msg)
{
    std::ostringstream oss;
    oss << kind << " (" << baseName(file) << ":" << line << "): " << msg;
    return oss.str();
}

} // namespace detail

void
warnAt(const char *file, int line, const std::string &msg)
{
    std::cerr << detail::formatMessage("warn", file, line, msg) << "\n";
}

} // namespace gcd2
