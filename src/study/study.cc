#include "study/study.hh"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <utility>

#include "core/lab.hh"
#include "study/builtin.hh"
#include "util/env.hh"
#include "util/logging.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

namespace lhr
{

// ---- formats ----------------------------------------------------------

std::optional<OutputFormat>
parseOutputFormat(std::string_view text)
{
    if (text == "text")
        return OutputFormat::Text;
    if (text == "csv")
        return OutputFormat::Csv;
    if (text == "json")
        return OutputFormat::Json;
    return std::nullopt;
}

const char *
outputFormatExtension(OutputFormat format)
{
    switch (format) {
      case OutputFormat::Text: return "txt";
      case OutputFormat::Csv: return "csv";
      case OutputFormat::Json: return "json";
    }
    panic("unknown output format");
}

// ---- makeStudy --------------------------------------------------------

namespace
{

class LambdaStudy : public Study
{
  public:
    LambdaStudy(std::string name, std::string description,
                std::function<std::vector<MachineConfig>()> grid,
                std::function<void(Lab &, ReportContext &)> run)
        : studyName(std::move(name)),
          studyDescription(std::move(description)),
          gridFn(std::move(grid)), runFn(std::move(run))
    {
    }

    const std::string &name() const override { return studyName; }

    const std::string &
    description() const override
    {
        return studyDescription;
    }

    std::vector<MachineConfig>
    grid() const override
    {
        return gridFn ? gridFn() : std::vector<MachineConfig>{};
    }

    void
    run(Lab &lab, ReportContext &ctx) const override
    {
        runFn(lab, ctx);
    }

  private:
    std::string studyName;
    std::string studyDescription;
    std::function<std::vector<MachineConfig>()> gridFn;
    std::function<void(Lab &, ReportContext &)> runFn;
};

} // namespace

std::unique_ptr<Study>
makeStudy(std::string name, std::string description,
          std::function<std::vector<MachineConfig>()> grid,
          std::function<void(Lab &, ReportContext &)> run)
{
    if (!run)
        panic("makeStudy: study '" + name + "' has no run function");
    return std::make_unique<LambdaStudy>(
        std::move(name), std::move(description), std::move(grid),
        std::move(run));
}

// ---- registry ---------------------------------------------------------

StudyRegistry &
StudyRegistry::instance()
{
    static StudyRegistry &reg = []() -> StudyRegistry & {
        static StudyRegistry r;
        registerBuiltinStudies(r);
        return r;
    }();
    return reg;
}

void
StudyRegistry::add(std::unique_ptr<Study> study)
{
    if (!study)
        panic("StudyRegistry: null study");
    const std::string &name = study->name();
    if (byName.count(name))
        panic("StudyRegistry: duplicate study '" + name + "'");
    byName[name] = studies.size();
    studies.push_back(std::move(study));
}

const Study *
StudyRegistry::find(const std::string &name) const
{
    const auto it = byName.find(name);
    return it == byName.end() ? nullptr : studies[it->second].get();
}

std::vector<const Study *>
StudyRegistry::all() const
{
    std::vector<const Study *> out;
    out.reserve(studies.size());
    for (const auto &study : studies)
        out.push_back(study.get());
    return out;
}

void
registerBuiltinStudies(StudyRegistry &registry)
{
    registerFigureStudies(registry);
    registerTableStudies(registry);
    registerFindingsStudies(registry);
    registerModelAblationStudies(registry);
    registerLabAblationStudies(registry);
    registerFaultStudies(registry);
    registerHistoryStudies(registry);
}

// ---- running ----------------------------------------------------------

namespace
{

/** Full-precision configuration identity (label() rounds the clock). */
std::string
configKey(const MachineConfig &cfg)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s|%d|%d|%.17g|%d",
                  cfg.spec->id.c_str(),
                  static_cast<int>(cfg.enabledCores),
                  static_cast<int>(cfg.smtPerCore), cfg.clockGhz,
                  cfg.turboEnabled ? 1 : 0);
    return buf;
}

std::unique_ptr<Sink>
makeSink(std::ostream &os, OutputFormat format, const Study &study,
         uint64_t seed)
{
    switch (format) {
      case OutputFormat::Text:
        return std::make_unique<TextSink>(os);
      case OutputFormat::Csv:
        return std::make_unique<CsvSink>(os);
      case OutputFormat::Json:
        return std::make_unique<JsonSink>(os, study.name(),
                                          study.description(), seed);
    }
    panic("unknown output format");
}

} // namespace

std::vector<MachineConfig>
unionGrid(const std::vector<const Study *> &studies)
{
    std::vector<MachineConfig> grid;
    std::set<std::string> seen;
    for (const Study *study : studies) {
        for (const auto &cfg : study->grid()) {
            if (seen.insert(configKey(cfg)).second)
                grid.push_back(cfg);
        }
    }
    return grid;
}

void
runStudy(Lab &lab, const Study &study, Sink &sink, OutputFormat format,
         int threads)
{
    ReportContext ctx(sink, format,
                      threads > 0 ? threads
                                  : ThreadPool::defaultThreadCount());
    study.run(lab, ctx);
    sink.close();
}

int
runStudies(Lab &lab, const std::vector<const Study *> &studies,
           const StudyOptions &options)
{
    if (studies.empty())
        fatal("no studies selected (see: lhrlab list)");
    if (options.outDir.empty() && studies.size() > 1 &&
        options.format != OutputFormat::Text) {
        fatal("csv/json output of multiple studies needs --out DIR");
    }

    if (options.prewarm) {
        const auto grid = unionGrid(studies);
        if (!grid.empty())
            lab.prewarm(grid, {.threads = options.threads});
    }

    if (!options.outDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(options.outDir, ec);
        if (ec)
            fatal("cannot create " + options.outDir + ": " +
                  ec.message());
    }

    size_t index = 0;
    for (const Study *study : studies) {
        ++index;
        std::ofstream file;
        std::ostream *os = &std::cout;
        std::string path;
        if (!options.outDir.empty()) {
            path = options.outDir + "/" + study->name() + "." +
                   outputFormatExtension(options.format);
            file.open(path, std::ios::binary);
            if (!file)
                fatal("cannot write " + path);
            os = &file;
        } else if (studies.size() > 1) {
            // Several text reports share stdout; banner them. A
            // single study stays byte-identical to its historical
            // binary.
            std::cout << "=== " << study->name() << " ===\n";
        }

        const auto sink =
            makeSink(*os, options.format, *study, lab.seed());
        runStudy(lab, *study, *sink, options.format, options.threads);

        if (!path.empty()) {
            std::cerr << "[" << index << "/" << studies.size() << "] "
                      << study->name() << " -> " << path << "\n";
        }
    }
    return 0;
}

// ---- CLI --------------------------------------------------------------

void
listStudies(std::ostream &os, bool namesOnly)
{
    const auto studies = StudyRegistry::instance().all();
    if (namesOnly) {
        for (const Study *study : studies)
            os << study->name() << "\n";
        return;
    }
    TableWriter table;
    table.addColumn("Study", TableWriter::Align::Left);
    table.addColumn("Grid");
    table.addColumn("Description", TableWriter::Align::Left);
    for (const Study *study : studies) {
        table.beginRow();
        table.cell(study->name());
        table.cell(static_cast<long>(study->grid().size()));
        table.cell(study->description());
    }
    table.print(os);
    os << "(" << studies.size() << " studies)\n";
}

int
runStudyCommand(const std::vector<std::string> &args)
{
    StudyOptions options;
    std::vector<std::string> names;
    bool all = false;

    auto valueOf = [&](const std::string &opt, size_t &i,
                       const std::string &inline_value,
                       bool has_inline) -> std::string {
        if (has_inline)
            return inline_value;
        if (i + 1 >= args.size())
            fatal("option " + opt + " needs a value");
        return args[++i];
    };

    for (size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        std::string opt = arg, inlineValue;
        bool hasInline = false;
        if (const auto eq = arg.find('=');
            arg.rfind("--", 0) == 0 && eq != std::string::npos) {
            opt = arg.substr(0, eq);
            inlineValue = arg.substr(eq + 1);
            hasInline = true;
        }

        if (opt == "--all") {
            all = true;
        } else if (opt == "--format") {
            const auto value =
                valueOf(opt, i, inlineValue, hasInline);
            const auto format = parseOutputFormat(value);
            if (!format)
                fatal("unknown format '" + value +
                      "' (text|csv|json)");
            options.format = *format;
        } else if (opt == "--out") {
            options.outDir = valueOf(opt, i, inlineValue, hasInline);
        } else if (opt == "--seed") {
            const auto value =
                valueOf(opt, i, inlineValue, hasInline);
            const auto seed = parseSeed(value);
            if (!seed)
                fatal("malformed --seed '" + value + "'");
            setSeedOverride(seed);
        } else if (opt == "--jobs") {
            const auto value =
                valueOf(opt, i, inlineValue, hasInline);
            // Strict parse: atoi would quietly turn "banana" into 0
            // (= hardware concurrency), hiding the typo.
            const Expected<long> jobs = parseInt(value, 0, 1024);
            if (!jobs.ok())
                fatal("--jobs: " + jobs.status().message());
            options.threads = static_cast<int>(jobs.value());
        } else if (opt == "--no-prewarm") {
            options.prewarm = false;
        } else if (arg.rfind("--", 0) == 0) {
            fatal("unknown option " + arg);
        } else {
            names.push_back(arg);
        }
    }

    const auto &registry = StudyRegistry::instance();
    std::vector<const Study *> studies;
    if (all) {
        if (!names.empty())
            fatal("--all does not combine with study names");
        studies = registry.all();
    } else {
        for (const auto &name : names) {
            const Study *study = registry.find(name);
            if (!study)
                fatal("unknown study '" + name +
                      "' (see: lhrlab list)");
            studies.push_back(study);
        }
    }

    Lab lab;
    return runStudies(lab, studies, options);
}

} // namespace lhr
