/* c_client: an external consumer of the stalloc_c pluggable-allocator boundary.
 *
 * Pure C99, linked against libdl only. It dlopens libstalloc_c.so, resolves the five C entry
 * points, parses a stalloc trace CSV by hand, and replays it through stalloc_malloc /
 * stalloc_free while folding every placement decision into the same FNV-1a digest the
 * in-process replay engine computes. It then asks the library for the in-process reference
 * digest of the identical (trace, allocator, capacity, options) tuple and exits nonzero unless
 * the two match bit for bit — the determinism proof of the C boundary.
 *
 * Usage: c_client <libstalloc_c.so> <trace.csv> <allocator> <capacity> [options_csv]
 *   e.g. c_client build/libstalloc_c.so trace.csv vmm 2G vmm.granularity=2MiB
 */

#include <dlfcn.h>
#include <inttypes.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

typedef struct stalloc_handle stalloc_handle;
typedef stalloc_handle* (*stalloc_create_fn)(const char*, uint64_t, const char*);
typedef uint64_t (*stalloc_malloc_fn)(stalloc_handle*, uint64_t, uint8_t);
typedef int (*stalloc_free_fn)(stalloc_handle*, uint64_t);
typedef size_t (*stalloc_stats_json_fn)(stalloc_handle*, char*, size_t);
typedef void (*stalloc_destroy_fn)(stalloc_handle*);
typedef const char* (*stalloc_last_error_fn)(void);
typedef int (*stalloc_replay_digest_fn)(const char*, const char*, uint64_t, const char*,
                                        uint64_t*);

/* One trace event (one CSV row). */
typedef struct {
  uint64_t id;
  uint64_t size;
  uint64_t ts;
  uint64_t te;
  uint8_t stream;
} event_t;

/* One replay op: every event contributes a malloc at ts and a free at te. */
typedef struct {
  uint64_t time;
  uint64_t event;
  int is_free;
} op_t;

/* Frees at time t run before mallocs at time t (half-open lifespans), then event id — the
 * exact op order a sealed Trace stores in its op columns in-process. Sorted here with an
 * independent comparator, so the digest check also cross-checks that order. */
static int op_cmp(const void* a, const void* b) {
  const op_t* x = (const op_t*)a;
  const op_t* y = (const op_t*)b;
  if (x->time != y->time) return x->time < y->time ? -1 : 1;
  if (x->is_free != y->is_free) return x->is_free ? -1 : 1;
  if (x->event != y->event) return x->event < y->event ? -1 : 1;
  return 0;
}

/* FNV-1a over the 8 bytes of `value`, LSB first — PlacementDigestObserver::Mix. */
static uint64_t mix(uint64_t digest, uint64_t value) {
  int shift;
  for (shift = 0; shift < 64; shift += 8) {
    digest = (digest ^ ((value >> shift) & 0xff)) * 1099511628211ull;
  }
  return digest;
}

static uint64_t parse_capacity(const char* s) {
  char* end = NULL;
  uint64_t v = strtoull(s, &end, 10);
  if (end == s) return 0;
  switch (*end) {
    case 'K': case 'k': v *= 1024ull; break;
    case 'M': case 'm': v *= 1024ull * 1024; break;
    case 'G': case 'g': v *= 1024ull * 1024 * 1024; break;
    default: break;
  }
  return v;
}

static int load_trace(const char* path, event_t** out_events, size_t* out_n) {
  FILE* f = fopen(path, "r");
  if (f == NULL) {
    fprintf(stderr, "c_client: cannot open trace '%s'\n", path);
    return -1;
  }
  size_t cap = 1024, n = 0;
  event_t* events = (event_t*)malloc(cap * sizeof(event_t));
  char line[512];
  while (fgets(line, sizeof(line), f) != NULL) {
    if (line[0] == '#' || line[0] == '\n') continue;       /* comment block */
    if (strncmp(line, "id,", 3) == 0) continue;            /* column header */
    event_t e;
    unsigned long long id, size, ts, te, stream;
    /* row: id,size,ts,te,ps,pe,dyn,ls,le,stream */
    if (sscanf(line, "%llu,%llu,%llu,%llu,%*[^,],%*[^,],%*[^,],%*[^,],%*[^,],%llu", &id, &size,
               &ts, &te, &stream) != 5) {
      fprintf(stderr, "c_client: malformed trace row: %s", line);
      free(events);
      fclose(f);
      return -1;
    }
    e.id = id;
    e.size = size;
    e.ts = ts;
    e.te = te;
    e.stream = (uint8_t)stream;
    if (n == cap) {
      cap *= 2;
      events = (event_t*)realloc(events, cap * sizeof(event_t));
    }
    events[n++] = e;
  }
  fclose(f);
  *out_events = events;
  *out_n = n;
  return 0;
}

int main(int argc, char** argv) {
  if (argc < 5) {
    fprintf(stderr,
            "usage: %s <libstalloc_c.so> <trace.csv> <allocator> <capacity> [options_csv]\n",
            argv[0]);
    return 2;
  }
  const char* lib_path = argv[1];
  const char* trace_path = argv[2];
  const char* alloc_name = argv[3];
  const uint64_t capacity = parse_capacity(argv[4]);
  const char* options = argc > 5 ? argv[5] : "";
  if (capacity == 0) {
    fprintf(stderr, "c_client: bad capacity '%s'\n", argv[4]);
    return 2;
  }

  void* lib = dlopen(lib_path, RTLD_NOW | RTLD_LOCAL);
  if (lib == NULL) {
    fprintf(stderr, "c_client: dlopen failed: %s\n", dlerror());
    return 1;
  }
  stalloc_create_fn create = (stalloc_create_fn)dlsym(lib, "stalloc_create");
  stalloc_malloc_fn c_malloc = (stalloc_malloc_fn)dlsym(lib, "stalloc_malloc");
  stalloc_free_fn c_free = (stalloc_free_fn)dlsym(lib, "stalloc_free");
  stalloc_stats_json_fn stats_json = (stalloc_stats_json_fn)dlsym(lib, "stalloc_stats_json");
  stalloc_destroy_fn destroy = (stalloc_destroy_fn)dlsym(lib, "stalloc_destroy");
  stalloc_last_error_fn last_error = (stalloc_last_error_fn)dlsym(lib, "stalloc_last_error");
  stalloc_replay_digest_fn replay_digest =
      (stalloc_replay_digest_fn)dlsym(lib, "stalloc_replay_digest");
  if (!create || !c_malloc || !c_free || !stats_json || !destroy || !last_error ||
      !replay_digest) {
    fprintf(stderr, "c_client: missing symbol in %s\n", lib_path);
    return 1;
  }

  event_t* events = NULL;
  size_t num_events = 0;
  if (load_trace(trace_path, &events, &num_events) != 0) {
    return 1;
  }

  /* Build the interleaved op stream, exactly as the in-process engine orders it. */
  op_t* ops = (op_t*)malloc(2 * num_events * sizeof(op_t));
  uint64_t* addr_of = (uint64_t*)calloc(num_events, sizeof(uint64_t));
  size_t i;
  for (i = 0; i < num_events; ++i) {
    ops[2 * i].time = events[i].ts;
    ops[2 * i].event = i;
    ops[2 * i].is_free = 0;
    ops[2 * i + 1].time = events[i].te;
    ops[2 * i + 1].event = i;
    ops[2 * i + 1].is_free = 1;
  }
  qsort(ops, 2 * num_events, sizeof(op_t), op_cmp);

  stalloc_handle* h = create(alloc_name, capacity, options);
  if (h == NULL) {
    fprintf(stderr, "c_client: stalloc_create failed: %s\n", last_error());
    return 1;
  }

  uint64_t digest = 14695981039346656037ull; /* FNV-1a 64-bit offset basis */
  int oom = 0;
  size_t mallocs = 0, frees = 0;
  for (i = 0; i < 2 * num_events && !oom; ++i) {
    const event_t* e = &events[ops[i].event];
    if (!ops[i].is_free) {
      uint64_t addr = c_malloc(h, e->size, e->stream);
      if (addr == 0) {
        oom = 1; /* the in-process engine aborts the run at the first failed malloc */
        break;
      }
      addr_of[ops[i].event] = addr;
      digest = mix(digest, 0x4d);
      digest = mix(digest, e->id);
      digest = mix(digest, addr);
      digest = mix(digest, e->size);
      ++mallocs;
    } else if (addr_of[ops[i].event] != 0) {
      if (c_free(h, addr_of[ops[i].event]) != 0) {
        fprintf(stderr, "c_client: stalloc_free failed: %s\n", last_error());
        return 1;
      }
      digest = mix(digest, 0x46);
      digest = mix(digest, e->id);
      digest = mix(digest, addr_of[ops[i].event]);
      digest = mix(digest, e->size);
      addr_of[ops[i].event] = 0;
      ++frees;
    }
  }

  size_t want = stats_json(h, NULL, 0);
  char* json = (char*)malloc(want + 1);
  stats_json(h, json, want + 1);
  printf("c_client: %s over %s: %zu mallocs, %zu frees, oom=%d\n", alloc_name, trace_path,
         mallocs, frees, oom);
  printf("c_client: stats %s\n", json);
  printf("c_client: digest %016" PRIx64 "\n", digest);

  uint64_t reference = 0;
  if (replay_digest(trace_path, alloc_name, capacity, options, &reference) != 0) {
    fprintf(stderr, "c_client: stalloc_replay_digest failed: %s\n", last_error());
    return 1;
  }
  destroy(h);
  free(json);
  free(addr_of);
  free(ops);
  free(events);
  dlclose(lib);

  if (digest != reference) {
    fprintf(stderr, "c_client: DIGEST MISMATCH: client %016" PRIx64 " vs in-process %016" PRIx64
                    "\n",
            digest, reference);
    return 1;
  }
  printf("c_client: digest matches the in-process replay (%016" PRIx64 ")\n", reference);
  return 0;
}
