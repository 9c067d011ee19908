/**
 * @file
 * Declarative command-line flags. A tool declares each flag once --
 * name, argument, help text, setter/validator and the modes it
 * applies to -- and one generic Parser derives from that table the
 * `--flag VALUE` / `--flag=VALUE` parsing, the missing-value and
 * unknown-flag errors, the out-of-mode rejection and `--help`.
 */

#ifndef NOSQ_COMMON_FLAGS_HH
#define NOSQ_COMMON_FLAGS_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace nosq {
namespace flags {

/** How a flag takes its value. */
enum class Arg
{
    None,     ///< `--flag`
    Required, ///< `--flag VALUE` or `--flag=VALUE`
    Optional, ///< `--flag` or `--flag=VALUE`, never the next word
};

/**
 * Applies one occurrence of a flag to the options it sets.
 * @param flag  the flag's name, for error messages
 * @param value its value ("" for Arg::None and a bare Arg::Optional)
 * @return an error message, or "" when the value was accepted
 */
using Setter = std::function<std::string(const std::string &flag,
                                         const std::string &value)>;

/** One table entry: everything the parser and `--help` know. */
struct Flag
{
    std::string name;    ///< `--bench`
    Arg arg;
    std::string metavar; ///< value placeholder in `--help` (`NAME`)
    unsigned modes;      ///< bit m set: the flag applies in mode m
    std::string help;    ///< one paragraph; `--help` wraps it
    Setter set;          ///< empty for a flag that only selects a mode
};

/** A mode of operation; mode 0 is the default. */
struct Mode
{
    std::string name; ///< e.g. "sweep"; used in messages and --help
    std::string flag; ///< the flag that selects it ("" for mode 0)
};

/** What Parser::parse() found. */
struct Parsed
{
    enum class Status { Ok, Help, Error };
    Status status = Status::Ok;
    unsigned mode = 0;  ///< index into the mode list
    std::string error;  ///< the message, for Status::Error
};

class Parser
{
  public:
    /**
     * @param usage  text printed above the flag list by help()
     * @param modes  the tool's modes; the selecting flag of each
     *               mode but mode 0 must be in @p flags
     * @param flags  the flag table, in --help order
     */
    Parser(std::string usage, std::vector<Mode> modes,
           std::vector<Flag> flags);

    /**
     * Parse @p args (the words after the program name): resolve
     * every word to a table entry, pick the mode from the selecting
     * flags, then run each occurrence's setter in command-line
     * order after checking that the flag applies in that mode.
     * `--help` or `-h` stops at once with Status::Help.
     */
    Parsed parse(const std::vector<std::string> &args) const;

    /** The usage text plus one wrapped paragraph per flag. */
    std::string help() const;

    /**
     * Act on a parse() that did not return Status::Ok: print help()
     * to stdout, or @p prefix and the error to stderr.
     * @return the exit status: 0 for help, @p error_status else
     */
    int finish(const Parsed &parsed, const std::string &prefix,
               int error_status) const;

  private:
    const Flag *find(const std::string &name) const;
    /** "single-run and sweep modes" for @p modes. */
    std::string modeList(unsigned modes) const;

    std::string usage_;
    std::vector<Mode> modes_;
    std::vector<Flag> flags_;
};

/**
 * Strictly parse an unsigned decimal: digits only (no sign, blank or
 * suffix) and no overflow. strtoul alone would read "abc" as 0.
 */
bool parseUnsigned(const std::string &text, std::uint64_t &out);

/** "invalid FLAG 'VALUE' (HINT)" */
std::string invalid(const std::string &flag, const std::string &value,
                    const std::string &hint);

// --- setter builders -------------------------------------------------------

/** The type a setter stores: T itself, or T for std::optional<T>. */
template <typename T> struct ValueOf { using type = T; };
template <typename T> struct ValueOf<std::optional<T>> { using type = T; };

/** Store @p v into @p dst (an Arg::None switch). */
template <typename T>
Setter
store(T &dst, T v)
{
    return [&dst, v](const std::string &, const std::string &) {
        dst = v;
        return std::string();
    };
}

/** Store the value as given. */
template <typename T>
Setter
text(T &dst)
{
    return [&dst](const std::string &, const std::string &value) {
        dst = value;
        return std::string();
    };
}

/** Store a non-empty value; "FLAG needs a non-empty WHAT" else. */
Setter nonEmpty(std::string &dst, const std::string &what);

/**
 * Store a strict unsigned value in [@p lo, @p hi] that also passes
 * @p ok (when given); invalid() with @p hint otherwise. @p dst may be
 * an integer or a std::optional of one.
 */
template <typename T>
Setter
number(T &dst, std::uint64_t lo, std::uint64_t hi, std::string hint,
       bool (*ok)(std::uint64_t) = nullptr)
{
    return [&dst, lo, hi, hint, ok](const std::string &flag,
                                    const std::string &value) {
        std::uint64_t v = 0;
        if (!parseUnsigned(value, v) || v < lo || v > hi ||
            (ok != nullptr && !ok(v)))
            return invalid(flag, value, hint);
        dst = static_cast<typename ValueOf<T>::type>(v);
        return std::string();
    };
}

} // namespace flags
} // namespace nosq

#endif // NOSQ_COMMON_FLAGS_HH
