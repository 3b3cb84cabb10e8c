#include "study/study.hh"

#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <utility>

#include "core/lab.hh"
#include "study/builtin.hh"
#include "util/logging.hh"
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

std::unique_ptr<Study>
makeStudy(std::string name, std::string description,
          std::function<std::vector<MachineConfig>()> grid,
          std::function<void(Lab &, ReportContext &)> run)
{
    if (!run)
        panic("makeStudy: study '" + name + "' has no run function");
    return std::make_unique<Study>(std::move(name),
                                   std::move(description),
                                   std::move(grid), std::move(run));
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

Status
runStudies(Lab &lab, const std::vector<const Study *> &studies,
           const StudyOptions &options)
{
    if (options.prewarm) {
        const auto grid = unionGrid(studies);
        if (!grid.empty())
            lab.prewarm(grid, {.threads = options.threads});
    }

    if (!options.outDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(options.outDir, ec);
        if (ec)
            return Status::error(StatusCode::IoError,
                                 "cannot create " + options.outDir +
                                     ": " + ec.message());
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
                return Status::error(StatusCode::IoError,
                                     "cannot write " + path);
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
    return Status();
}

} // namespace lhr
