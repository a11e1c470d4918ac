/* pcsample.c — an LD_PRELOAD shim that samples the program counter.
 *
 * Loaded into any process (scripts/pcsample.sh loads it into chaos-perf), it
 * arms a 250 Hz CPU-time timer before main, stores the interrupted
 * instruction address on every SIGPROF, and at exit writes `pcsample.out`
 * into the working directory: the process's /proc/self/maps, one "M " line
 * per mapping, then one "S <hex address>" line per sample. No stack walk, so
 * the sampled binary needs no frame pointers: line tables name the function,
 * and the functions inlined around it, from the address alone.
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#if defined(__x86_64__)
#define PC(uc) ((uc)->uc_mcontext.gregs[REG_RIP])
#elif defined(__aarch64__)
#define PC(uc) ((uc)->uc_mcontext.pc)
#else
#error "pcsample: no program-counter accessor for this architecture"
#endif

#define HZ 250
#define MAX_SAMPLES (1ul << 20) /* 70 minutes of CPU time */

static unsigned long *samples;
static unsigned long taken;

static void on_sigprof(int sig, siginfo_t *info, void *context) {
    (void)sig;
    (void)info;
    unsigned long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        samples[i] = (unsigned long)PC((ucontext_t *)context);
}

static void set_timer(long usec) {
    struct itimerval every = {{0, usec}, {0, usec}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((constructor)) static void start(void) {
    samples = calloc(MAX_SAMPLES, sizeof *samples);
    if (!samples)
        return;
    struct sigaction act = {0};
    act.sa_sigaction = on_sigprof;
    act.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &act, NULL);
    set_timer(1000000 / HZ);
}

__attribute__((destructor)) static void stop(void) {
    set_timer(0);
    FILE *maps = fopen("/proc/self/maps", "r");
    FILE *out = fopen("pcsample.out", "w");
    if (!samples || !maps || !out)
        return;
    char line[4096];
    while (fgets(line, sizeof line, maps))
        fprintf(out, "M %s", line);
    unsigned long n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (unsigned long i = 0; i < n; i++)
        fprintf(out, "S %lx\n", samples[i]);
    fclose(out);
    fclose(maps);
}
