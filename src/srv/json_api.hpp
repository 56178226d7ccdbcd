/**
 * @file
 * JSON request/response vocabulary of the hcloud serve API.
 *
 * Strictly-typed parsing: every field is checked for presence (where
 * required), JSON type and, for numbers, finiteness and range; violations
 * throw ApiError with an HTTP
 * status (400 malformed JSON, 422 wrong shape/unknown enum value) and a
 * machine-readable code — the daemon's handlers translate these into the
 * structured error body
 *
 *     {"error": {"code": "...", "message": "..."}}
 *
 * so malformed input is always a 4xx with a parseable explanation, never
 * a crash or a silent default (asserted in tests/test_srv_api.cpp).
 *
 * Serialization reuses obs::JsonWriter, whose double formatting is the
 * shortest round-trip form — a JobSpec serialized here and parsed back
 * is bit-identical, which the HTTP-vs-batch determinism test leans on.
 */

#ifndef HCLOUD_SRV_JSON_API_HPP
#define HCLOUD_SRV_JSON_API_HPP

#include <cstdint>
#include <string>
#include <string_view>

#include "core/types.hpp"
#include "obs/json.hpp"
#include "workload/job.hpp"
#include "workload/scenario.hpp"

namespace hcloud::srv {

/** API-level failure carrying the HTTP status to answer with. */
struct ApiError
{
    int status;          ///< HTTP status (400/404/409/422)
    std::string code;    ///< stable machine-readable identifier
    std::string message; ///< human-readable explanation
};

/** `{"error":{"code":...,"message":...}}`. */
std::string errorJson(std::string_view code, std::string_view message);

/** Everything needed to create one tenant session. */
struct SessionConfig
{
    /** Tenant id; empty = server assigns "t-<seq>". */
    std::string id;
    core::StrategyKind strategy = core::StrategyKind::HM;
    /** Scenario whose trace sizes the reserved pool (and whose seed +
     *  loadScale define the tenant's workload identity). */
    workload::ScenarioConfig scenario{};
    core::EngineConfig engine{};
};

// ---- Parsing (throws ApiError) -----------------------------------------

/** Parse a request body into a JSON value: 400 on malformed JSON. */
obs::JsonValue parseBody(std::string_view body);

/**
 * Required number field @p name of @p obj: 422 invalid_field when it is
 * missing, not a number, or not finite (the parser reads `nan` and
 * `1e999` as numbers; neither may reach the engine or the journal).
 */
double getNumber(const obs::JsonValue& obj, std::string_view name);

/** 422 unless every enum/type constraint holds. */
SessionConfig parseSessionConfig(const obs::JsonValue& v);

/** 422 unless every enum/type constraint holds. */
workload::JobSpec parseJobSpec(const obs::JsonValue& v);

bool parseStrategyKind(const std::string& name, core::StrategyKind* out);
bool parseScenarioKind(const std::string& name,
                       workload::ScenarioKind* out);
bool parseAppKind(const std::string& name, workload::AppKind* out);

// ---- Serialization ------------------------------------------------------

/** JobSpec as a JSON object (round-trips bit-exactly via parseJobSpec). */
void jobSpecJson(obs::JsonWriter& w, const workload::JobSpec& spec);

/** SessionConfig as a JSON object (round-trips bit-exactly via
 *  parseSessionConfig) — the journal's "create" record payload. */
void sessionConfigJson(obs::JsonWriter& w, const SessionConfig& config);

} // namespace hcloud::srv

#endif // HCLOUD_SRV_JSON_API_HPP
