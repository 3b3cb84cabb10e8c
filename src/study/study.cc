#include "study/study.hh"

#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <set>
#include <sstream>
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
    const bool toFiles = !options.outDir.empty();
    if (toFiles) {
        std::error_code ec;
        std::filesystem::create_directories(options.outDir, ec);
        if (ec)
            return Status::error(StatusCode::IoError,
                                 "cannot create " + options.outDir +
                                     ": " + ec.message());
    }

    // Several reports sharing stdout are buffered and bannered; one
    // study on stdout streams, byte-identical to its historical
    // binary, and a study with a file writes straight into it.
    const bool buffered = !toFiles && studies.size() > 1;
    struct Outcome
    {
        std::string path;   ///< the artifact file, when toFiles
        std::string text;   ///< the whole report, when buffered
        Status status;
        bool done = false;
    };
    std::mutex emitMutex; ///< guards outcomes and emitted
    std::vector<Outcome> outcomes(studies.size());
    size_t emitted = 0; ///< the registry-order prefix already emitted

    auto runOne = [&](size_t i) {
        const Study &study = *studies[i];
        Outcome result;
        std::ofstream file;
        std::ostringstream buffer;
        std::ostream *os = &std::cout;
        if (toFiles) {
            result.path = options.outDir + "/" + study.name() + "." +
                outputFormatExtension(options.format);
            file.open(result.path, std::ios::binary);
            os = &file;
            if (!file)
                result.status = Status::error(
                    StatusCode::IoError, "cannot write " + result.path);
        } else if (buffered) {
            os = &buffer;
        }
        if (result.status.ok()) {
            const auto sink =
                makeSink(*os, options.format, study, lab.seed());
            runStudy(lab, study, *sink, options.format, options.threads);
        }
        file.close();
        result.text = std::move(buffer).str();
        result.done = true;

        // Emit every finished study at the head of the registry order
        // (stdout banners and reports, stderr progress lines), so the
        // streams read as if the studies had run one after another. A
        // study that failed holds back everything after it.
        const std::lock_guard<std::mutex> lock(emitMutex);
        outcomes[i] = std::move(result);
        for (; emitted < outcomes.size() && outcomes[emitted].done &&
             outcomes[emitted].status.ok();
             ++emitted) {
            Outcome &head = outcomes[emitted];
            const std::string &name = studies[emitted]->name();
            if (buffered)
                std::cout << "=== " << name << " ===\n" << head.text;
            if (toFiles)
                std::cerr << "[" << emitted + 1 << "/"
                          << outcomes.size() << "] " << name << " -> "
                          << head.path << "\n";
            head.text = std::string();
        }
    };

    // Phase 1 runs the studies that read no prewarmed grid
    // (ablation_pipesim among them, the long pole) concurrently
    // before the memo cache is warm; phase 2 prewarms the union grid
    // and then runs the grid studies on the same workers.
    ThreadPool pool(options.threads);
    auto runPhase = [&](bool gridless) {
        for (size_t i = 0; i < studies.size(); ++i) {
            if (studies[i]->grid().empty() == gridless)
                pool.submit([&runOne, i] { runOne(i); });
        }
        pool.wait();
    };
    runPhase(true);
    if (options.prewarm) {
        const auto grid = unionGrid(studies);
        if (!grid.empty())
            lab.prewarm(grid, {.threads = options.threads});
    }
    runPhase(false);

    for (const Outcome &outcome : outcomes) {
        if (!outcome.status.ok())
            return outcome.status;
    }
    return Status();
}

} // namespace lhr
