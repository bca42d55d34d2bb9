/* stalloc_c: the pluggable-allocator C boundary.
 *
 * A pure C99 view of the allocator registry, shaped like PyTorch's CUDAPluggableAllocator
 * contract: a foreign runtime dlopens libstalloc_c.so, resolves these five symbols, and routes
 * its malloc/free stream through any registered allocator ("vmm", "torch-caching", "gmlake",
 * ...) with no C++ types crossing the boundary. One handle = one simulated device + one
 * allocator instance; handles are independent and internally synchronized by the caller (the
 * simulator core is single-threaded per device, as a CUDA stream-ordered allocator would be).
 *
 * Determinism contract: a replay driven through this boundary makes bit-identical placement
 * decisions to the in-process replay engine. stalloc_replay_digest() exposes the in-process
 * reference digest so an external client can verify that end-to-end (examples/c_client.c does).
 *
 * Errors: functions return 0/NULL on failure; stalloc_last_error() describes the most recent
 * failure on the calling thread.
 */

#ifndef SRC_CABI_STALLOC_C_H_
#define SRC_CABI_STALLOC_C_H_

#include <stddef.h>
#include <stdint.h>

#if defined(_WIN32)
#define STALLOC_C_API __declspec(dllexport)
#else
#define STALLOC_C_API __attribute__((visibility("default")))
#endif

#if defined(__cplusplus)
extern "C" {
#endif

/* One device + one allocator. Opaque. */
typedef struct stalloc_handle stalloc_handle;

/* Creates allocator `name` (a registry name as printed by `stalloc_run --list-allocs`) over a
 * fresh simulated device of `capacity_bytes`. `options` is a comma-separated key=value list in
 * --alloc-opt syntax ("vmm.granularity=2MiB,gmlake.frag_limit=64M"); NULL or "" means
 * defaults. NULL on failure (unknown allocator, plan-pipeline kind, malformed option, a
 * capacity of 0 or above 2^40 bytes, SimDevice::kMaxCapacity). */
STALLOC_C_API stalloc_handle* stalloc_create(const char* name, uint64_t capacity_bytes,
                                             const char* options);

/* Allocates `size` bytes on `stream` (0 = the compute stream). Returns the device address, or
 * 0 on out-of-memory (device addresses are never 0). */
STALLOC_C_API uint64_t stalloc_malloc(stalloc_handle* h, uint64_t size, uint8_t stream);

/* Frees a previously returned address. Returns 0 on success and -1 if the address is unknown
 * (double free / stray pointer) — an error result, never an abort. */
STALLOC_C_API int stalloc_free(stalloc_handle* h, uint64_t addr);

/* Writes the allocator's statistics as a JSON object into `buf` (NUL-terminated when it fits)
 * and returns the JSON length excluding the NUL. Call with buf=NULL (or a short buffer) to
 * size, then again with length+1 bytes. Returns 0 with an error set if `h` is NULL. */
STALLOC_C_API size_t stalloc_stats_json(stalloc_handle* h, char* buf, size_t len);

/* Destroys the allocator and its device. NULL is a no-op. */
STALLOC_C_API void stalloc_destroy(stalloc_handle* h);

/* Message for the most recent failure on this thread; "" if none. The pointer stays valid
 * until the next failing call on the same thread. */
STALLOC_C_API const char* stalloc_last_error(void);

/* Reference replay: loads the trace CSV at `trace_csv_path`, replays it in-process through
 * allocator `name` over a fresh device (same engine the experiment drivers use), and stores
 * the 64-bit FNV-1a placement digest in *out_digest. An external client replaying the same
 * trace through stalloc_malloc/stalloc_free — frees sorted before mallocs at equal timestamps,
 * stopping at the first failed malloc, folding (0x4d, id, addr, size) per malloc and
 * (0x46, id, addr, size) per free — must reproduce this digest exactly. Returns 0 on success,
 * -1 on failure (unreadable trace, unknown allocator, malformed options). */
STALLOC_C_API int stalloc_replay_digest(const char* trace_csv_path, const char* name,
                                        uint64_t capacity_bytes, const char* options,
                                        uint64_t* out_digest);

#if defined(__cplusplus)
} /* extern "C" */
#endif

#endif /* SRC_CABI_STALLOC_C_H_ */
