#include "common/flags.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"

namespace nosq {
namespace flags {

namespace {

/** Column the help paragraphs start in, and the line width. */
constexpr std::size_t help_column = 24;
constexpr std::size_t help_width = 76;

/**
 * Append @p text to @p out, whose last line already reaches
 * @p column, word-wrapped to help_width with continuation lines
 * indented to @p column.
 */
void
appendWrapped(std::string &out, const std::string &text,
              std::size_t column)
{
    std::size_t line = column;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t end = text.find(' ', pos);
        if (end == std::string::npos)
            end = text.size();
        const std::size_t len = end - pos;
        if (line > column && line + 1 + len > help_width) {
            out += "\n" + std::string(column, ' ');
            line = column;
        } else if (line > column) {
            out += ' ';
            ++line;
        }
        out.append(text, pos, len);
        line += len;
        pos = end + 1;
    }
    out += '\n';
}

} // anonymous namespace

Parser::Parser(std::string usage, std::vector<Mode> modes,
               std::vector<Flag> flags)
    : usage_(std::move(usage)), modes_(std::move(modes)),
      flags_(std::move(flags))
{
    for (std::size_t m = 1; m < modes_.size(); ++m)
        nosq_assert(find(modes_[m].flag) != nullptr,
                    "mode flag missing from the table");
}

const Flag *
Parser::find(const std::string &name) const
{
    for (const Flag &flag : flags_) {
        if (flag.name == name)
            return &flag;
    }
    return nullptr;
}

std::string
Parser::modeList(unsigned modes) const
{
    std::vector<std::string> names;
    for (std::size_t m = 0; m < modes_.size(); ++m) {
        if (modes >> m & 1u)
            names.push_back(modes_[m].name);
    }
    std::string list;
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (i > 0)
            list += i + 1 == names.size() ? " and " : ", ";
        list += names[i];
    }
    return list + (names.size() == 1 ? " mode" : " modes");
}

Parsed
Parser::parse(const std::vector<std::string> &args) const
{
    Parsed out;
    auto fail = [&out](std::string error) {
        out.status = Parsed::Status::Error;
        out.error = std::move(error);
        return out;
    };

    // Resolve every word first: the mode a flag is checked against
    // may be selected later on the command line.
    std::vector<std::pair<const Flag *, std::string>> given;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &word = args[i];
        if (word == "--help" || word == "-h") {
            out.status = Parsed::Status::Help;
            return out;
        }
        const std::size_t eq =
            word.rfind("--", 0) == 0 ? word.find('=') : std::string::npos;
        const std::string name = word.substr(0, eq);
        const Flag *flag = find(name);
        if (flag == nullptr)
            return fail("unknown option '" + name + "' (see --help)");
        std::string value;
        if (eq != std::string::npos) {
            value = word.substr(eq + 1);
            if (flag->arg == Arg::None)
                return fail(name + " takes no value");
            if (flag->arg == Arg::Optional && value.empty())
                return fail(name + "= needs a value");
        } else if (flag->arg == Arg::Required) {
            if (i + 1 == args.size())
                return fail(name + " needs a value");
            value = args[++i];
        }
        given.emplace_back(flag, std::move(value));
    }

    const Flag *selector = nullptr;
    for (const auto &given_flag : given) {
        const Flag *flag = given_flag.first;
        for (std::size_t m = 1; m < modes_.size(); ++m) {
            if (modes_[m].flag != flag->name)
                continue;
            if (selector != nullptr && selector != flag)
                return fail(selector->name + " and " + flag->name +
                            " are mutually exclusive");
            selector = flag;
            out.mode = static_cast<unsigned>(m);
        }
    }

    for (const auto &[flag, value] : given) {
        if (!(flag->modes >> out.mode & 1u))
            return fail(flag->name + " applies only to " +
                        modeList(flag->modes));
        std::string error = flag->set ? flag->set(flag->name, value)
                                      : std::string();
        if (!error.empty())
            return fail(std::move(error));
    }
    return out;
}

std::string
Parser::help() const
{
    std::string out = usage_;
    if (modes_.size() > 1) {
        std::string text = "One mode per invocation: " + modes_[0].name +
                           " (the default)";
        for (std::size_t m = 1; m < modes_.size(); ++m)
            text += ", " + modes_[m].name + " (" + modes_[m].flag + ")";
        text += ". A flag given outside the modes listed in its "
                "[brackets] is rejected.";
        appendWrapped(out, text, 0);
    }
    out += "A flag's value is the next word, or follows an '='.\n\n"
           "Options:\n";
    for (const Flag &flag : flags_) {
        std::string left = "  " + flag.name;
        if (flag.arg == Arg::Required)
            left += " " + flag.metavar;
        else if (flag.arg == Arg::Optional)
            left += "[=" + flag.metavar + "]";
        out += left;
        if (left.size() + 1 > help_column)
            out += "\n" + std::string(help_column, ' ');
        else
            out += std::string(help_column - left.size(), ' ');
        // Name the modes a flag applies in; a mode's own selecting
        // flag needs no such note.
        bool selector = false;
        for (const Mode &mode : modes_)
            selector |= mode.flag == flag.name;
        std::string text = flag.help;
        if (modes_.size() > 1 && !selector)
            text += " [" + modeList(flag.modes) + "]";
        appendWrapped(out, text, help_column);
    }
    out += "  --help" + std::string(help_column - 8, ' ') +
           "print this help and exit\n";
    return out;
}

int
Parser::finish(const Parsed &parsed, const std::string &prefix,
               int error_status) const
{
    if (parsed.status == Parsed::Status::Help) {
        std::fputs(help().c_str(), stdout);
        return 0;
    }
    std::fprintf(stderr, "%s%s\n", prefix.c_str(), parsed.error.c_str());
    return error_status;
}

bool
parseUnsigned(const std::string &text, std::uint64_t &out)
{
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos)
        return false;
    errno = 0;
    out = std::strtoull(text.c_str(), nullptr, 10);
    return errno != ERANGE;
}

std::string
invalid(const std::string &flag, const std::string &value,
        const std::string &hint)
{
    return "invalid " + flag + " '" + value + "' (" + hint + ")";
}

Setter
nonEmpty(std::string &dst, const std::string &what)
{
    return [&dst, what](const std::string &flag,
                        const std::string &value) {
        if (value.empty())
            return flag + " needs a non-empty " + what;
        dst = value;
        return std::string();
    };
}

} // namespace flags
} // namespace nosq
