#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

namespace hcloud::runtime {

std::size_t
hardwareThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n > 0 ? n : 1;
}

std::optional<std::size_t>
parseThreadCount(const char* text, ThreadCountError* error)
{
    auto reject = [&](const char* reason) -> std::optional<std::size_t> {
        if (error) {
            error->value = text ? text : "";
            error->reason = reason;
        }
        return std::nullopt;
    };
    if (!text || *text == '\0')
        return reject("empty value");
    // strtoul accepts leading whitespace, '+' and even '-' (wrapping);
    // a worker count is digits only.
    for (const char* p = text; *p != '\0'; ++p) {
        if (!std::isdigit(static_cast<unsigned char>(*p)))
            return reject("not a positive integer");
    }
    char* end = nullptr;
    errno = 0;
    const unsigned long v = std::strtoul(text, &end, 10);
    if (errno == ERANGE)
        return reject("out of range");
    if (v == 0)
        return reject("must be at least 1");
    return static_cast<std::size_t>(v);
}

std::size_t
defaultThreadCount()
{
    if (const char* env = std::getenv("HCLOUD_THREADS")) {
        ThreadCountError error;
        if (const auto v = parseThreadCount(env, &error))
            return *v;
        throw std::invalid_argument("HCLOUD_THREADS=\"" + error.value +
                                    "\": " + error.reason);
    }
    return hardwareThreads();
}

void
parallelFor(std::size_t threads, std::size_t n,
            const std::function<void(std::size_t)>& fn)
{
    if (threads == 0)
        threads = defaultThreadCount();
    std::atomic<std::size_t> next{0};
    std::mutex errorMutex;
    std::size_t errorIndex = n;
    std::exception_ptr error;
    auto work = [&] {
        for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
             i < n; i = next.fetch_add(1, std::memory_order_relaxed)) {
            try {
                fn(i);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(errorMutex);
                if (i < errorIndex) {
                    errorIndex = i;
                    error = std::current_exception();
                }
            }
        }
    };
    std::vector<std::thread> helpers;
    try {
        for (std::size_t t = 1; t < std::min(threads, n); ++t)
            helpers.emplace_back(work);
    } catch (const std::exception&) {
        // A thread that cannot start (std::system_error, std::bad_alloc)
        // only means less overlap: the caller and the threads already
        // started still run every index.
    }
    work();
    for (std::thread& helper : helpers)
        helper.join();
    if (error)
        std::rethrow_exception(error);
}

} // namespace hcloud::runtime
