// dscoh_client: command-line client for the dscoh_svc daemon.
//
//   dscoh_client --socket S ping
//   dscoh_client --socket S submit [--tenant T] [--priority P] [--weight W]
//                [--size small|big] [--only VA,NN] [--modes ccsm,ds]
//                [--config FILE] [--request FILE] [--watch]
//   dscoh_client --socket S status ID
//   dscoh_client --socket S watch ID
//   dscoh_client --socket S cancel ID
//   dscoh_client --socket S list | stats | drain | shutdown
//
// submit prints the assigned request id and directory; --watch then polls
// until the request is terminal (exit 0 done, 1 failed/cancelled) and the
// results are in <dir>/results.json. watch does the same for an existing
// id. All other commands print the daemon's reply document. A daemon
// error exits 1, or 7 when the daemon is degraded (storage failing).
#include <chrono>
#include <climits>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "cli/options.h"
#include "obs/json_lite.h"
#include "sim/errors.h"
#include "svc/client.h"
#include "svc/request.h"

namespace {

using namespace dscoh;

bool readFile(const std::string& path, std::string* out, std::string* error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        *error = "cannot read " + path;
        return false;
    }
    std::ostringstream os;
    os << in.rdbuf();
    *out = os.str();
    return true;
}

std::vector<std::string> splitCommas(const std::string& s)
{
    std::vector<std::string> out;
    std::istringstream is(s);
    std::string item;
    while (std::getline(is, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

/// Parses all of @p text as a decimal int; false on junk or overflow.
bool parseInt(const std::string& text, int* out)
{
    try {
        std::size_t used = 0;
        *out = std::stoi(text, &used, 10);
        return used == text.size();
    } catch (const std::exception&) {
        return false;
    }
}

/// One round trip; exits on transport failure, returns the parsed reply.
jsonlite::ValuePtr call(const svc::SvcClient& client,
                        const std::string& line, std::string* rawReply)
{
    std::string reply, error;
    if (!client.call(line, &reply, &error)) {
        std::cerr << "dscoh_client: " << error << "\n";
        std::exit(kExitIo);
    }
    std::string parseError;
    jsonlite::ValuePtr v = jsonlite::parse(reply, parseError);
    if (v == nullptr || !v->isObject()) {
        std::cerr << "dscoh_client: bad reply: " << reply << "\n";
        std::exit(kExitFailure);
    }
    if (const jsonlite::Value* ok = v->get("ok");
        ok == nullptr || ok->kind != jsonlite::Kind::kBool || !ok->boolean) {
        const jsonlite::Value* err = v->get("error");
        std::cerr << "dscoh_client: daemon error: "
                  << (err != nullptr && err->isString() ? err->string
                                                        : reply)
                  << "\n";
        // A degraded daemon gets its own exit code so shell callers can
        // tell a sick disk from a bad request without parsing the reply.
        if (const jsonlite::Value* deg = v->get("degraded");
            deg != nullptr && deg->kind == jsonlite::Kind::kBool &&
            deg->boolean)
            std::exit(kExitDegraded);
        std::exit(kExitFailure);
    }
    if (rawReply != nullptr)
        *rawReply = reply;
    return v;
}

/// Polls status until terminal. Returns the process exit code.
int watch(const svc::SvcClient& client, const std::string& id)
{
    std::string last;
    for (;;) {
        const jsonlite::ValuePtr v =
            call(client, svc::requestLine("status", "id", id), nullptr);
        const jsonlite::Value* st = v->get("status");
        if (st == nullptr || !st->isObject()) {
            std::cerr << "dscoh_client: malformed status reply\n";
            return kExitFailure;
        }
        const jsonlite::Value* state = st->get("state");
        const jsonlite::Value* done = st->get("jobsDone");
        const jsonlite::Value* total = st->get("jobsTotal");
        const jsonlite::Value* failed = st->get("jobsFailed");
        std::ostringstream lineOs;
        lineOs << id << " " << (state != nullptr ? state->string : "?")
               << " "
               << (done != nullptr ? static_cast<std::uint64_t>(done->number)
                                   : 0)
               << "/"
               << (total != nullptr
                       ? static_cast<std::uint64_t>(total->number)
                       : 0);
        if (failed != nullptr && failed->number > 0)
            lineOs << " (" << static_cast<std::uint64_t>(failed->number)
                   << " failed)";
        const std::string lineStr = lineOs.str();
        if (lineStr != last) {
            std::cout << lineStr << "\n" << std::flush;
            last = lineStr;
        }
        const std::string s = state != nullptr ? state->string : "";
        if (s == "done")
            return kExitOk;
        if (s == "failed" || s == "cancelled")
            return kExitFailure;
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
    }
}

} // namespace

int main(int argc, char** argv)
{
    std::string socketPath;
    std::string tenant = "default";
    std::string priorityText = "0";
    std::uint64_t weight = 1;
    std::string sizeText = "small";
    std::string only;
    std::string modesText;
    std::string configFile;
    std::string requestFile;
    bool watchFlag = false;

    cli::OptionParser parser(
        "dscoh_client",
        "Client for the dscoh_svc daemon. Commands: ping, submit, status ID, "
        "watch ID, cancel ID, list, stats, drain, shutdown.");
    parser.addString("socket", "daemon socket path (required)", &socketPath);
    parser.addString("tenant", "submit: tenant name (default: default)",
                     &tenant);
    parser.addString("priority",
                     "submit: priority within the tenant (default 0)",
                     &priorityText);
    parser.addUint("weight", "submit: tenant fair-share weight (default 1)",
                   &weight);
    parser.addString("size", "submit: input size, small|big", &sizeText);
    parser.addString("only", "submit: comma-separated benchmark codes",
                     &only);
    parser.addString("modes", "submit: comma-separated modes (ccsm,ds,dsonly)",
                     &modesText);
    parser.addString("config", "submit: config file (key = value lines)",
                     &configFile);
    parser.addString("request",
                     "submit: raw request JSON file (overrides other flags)",
                     &requestFile);
    parser.addFlag("watch", "submit: poll until the request is terminal",
                   &watchFlag);
    if (!parser.parse(argc, argv, std::cerr))
        return kExitUsage;
    if (socketPath.empty() || parser.positional().empty()) {
        std::cerr << "dscoh_client: need --socket and a command "
                     "(ping|submit|status|watch|cancel|list|stats|drain|"
                     "shutdown)\n";
        return kExitUsage;
    }

    const svc::SvcClient client(socketPath);
    const std::string& cmd = parser.positional()[0];
    std::string raw;

    if (cmd == "ping" || cmd == "list" || cmd == "stats" || cmd == "drain" ||
        cmd == "shutdown") {
        call(client, svc::requestLine(cmd), &raw);
        std::cout << raw << "\n";
        return kExitOk;
    }

    if (cmd == "status" || cmd == "cancel" || cmd == "watch") {
        if (parser.positional().size() < 2) {
            std::cerr << "dscoh_client: " << cmd << " needs a request id\n";
            return kExitUsage;
        }
        const std::string& id = parser.positional()[1];
        if (cmd == "watch")
            return watch(client, id);
        call(client, svc::requestLine(cmd, "id", id), &raw);
        std::cout << raw << "\n";
        return kExitOk;
    }

    if (cmd != "submit") {
        std::cerr << "dscoh_client: unknown command '" << cmd << "'\n";
        return kExitUsage;
    }

    std::string requestJson;
    std::string error;
    if (!requestFile.empty()) {
        if (!readFile(requestFile, &requestJson, &error)) {
            std::cerr << "dscoh_client: " << error << "\n";
            return kExitUsage;
        }
        // Validate locally so mistakes fail with a line-precise message
        // before touching the daemon.
        svc::SweepRequest check;
        if (!svc::parseRequestJson(requestJson, &check, &error)) {
            std::cerr << "dscoh_client: " << requestFile << ": " << error
                      << "\n";
            return kExitUsage;
        }
        requestJson = svc::renderRequestJson(check);
    } else {
        svc::SweepRequest r;
        r.tenant = tenant;
        if (!parseInt(priorityText, &r.priority)) {
            std::cerr << "dscoh_client: --priority must be an integer, got '"
                      << priorityText << "'\n";
            return kExitUsage;
        }
        if (weight == 0 || weight > UINT_MAX) {
            std::cerr << "dscoh_client: --weight must be in [1, " << UINT_MAX
                      << "]\n";
            return kExitUsage;
        }
        r.weight = static_cast<unsigned>(weight);
        if (sizeText != "small" && sizeText != "big") {
            std::cerr << "dscoh_client: --size must be small or big\n";
            return kExitUsage;
        }
        r.size = sizeText == "big" ? InputSize::kBig : InputSize::kSmall;
        r.codes = splitCommas(only);
        for (const std::string& m : splitCommas(modesText)) {
            if (m == "ccsm")
                r.modes.push_back(CoherenceMode::kCcsm);
            else if (m == "ds")
                r.modes.push_back(CoherenceMode::kDirectStore);
            else if (m == "dsonly")
                r.modes.push_back(CoherenceMode::kDirectStoreOnly);
            else {
                std::cerr << "dscoh_client: unknown mode '" << m
                          << "' (ccsm|ds|dsonly)\n";
                return kExitUsage;
            }
        }
        if (!configFile.empty() &&
            !readFile(configFile, &r.configText, &error)) {
            std::cerr << "dscoh_client: " << error << "\n";
            return kExitUsage;
        }
        requestJson = svc::renderRequestJson(r);
    }

    const jsonlite::ValuePtr v =
        call(client, svc::requestLine("submit", "request", requestJson), &raw);
    const jsonlite::Value* id = v->get("id");
    const jsonlite::Value* dir = v->get("dir");
    std::cout << (id != nullptr ? id->string : "?") << " "
              << (dir != nullptr ? dir->string : "?") << "\n";
    if (watchFlag && id != nullptr)
        return watch(client, id->string);
    return kExitOk;
}
