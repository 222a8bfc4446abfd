#include "util/error.h"

#include <cstring>
#include <sstream>

namespace chiplet::detail {

void fail_expects(const char* condition, const char* file, int line,
                  const std::string& message) {
    // __FILE__ is the build path; only the file name belongs in a
    // message that may travel to a client.
    const char* slash = std::strrchr(file, '/');
    std::ostringstream os;
    os << message << " [violated: " << condition << " at "
       << (slash ? slash + 1 : file) << ':' << line << ']';
    throw ParameterError(os.str());
}

}  // namespace chiplet::detail
