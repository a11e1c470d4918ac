/* pcsample.c — an LD_PRELOAD shim that samples the program counter.
 *
 * Loaded into any process (scripts/pcsample.sh loads it into chaos-perf), it
 * arms a 250 Hz CPU-time timer before main, stores the interrupted
 * instruction address and the first few words at the interrupted stack
 * pointer on every SIGPROF, and at exit writes `pcsample.out` into the
 * working directory: the process's /proc/self/maps, one "M " line per
 * mapping, then one "S <address> <stack word> ..." line per sample, in hex.
 * No stack walk, so the sampled binary needs no frame pointers: line tables
 * name the function, and the functions inlined around it, from the address
 * alone. The stack words are for the samples that fall in a library: a leaf
 * routine (memmove) or a system-call stub (read, write) has pushed nothing,
 * so the address it returns to is the first of them, and a routine a frame
 * or two down still has it among the first few.
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

/* Stack words kept with a sample: realloc -> memcpy has its caller in the
 * executable some twenty words up, a leaf routine at word 0. */
#define WORDS 32

/* On aarch64 a leaf routine's return address is in the link register, not on
 * the stack: it goes first, then the stack words. */
#if defined(__x86_64__)
#define PC(uc) ((uc)->uc_mcontext.gregs[REG_RIP])
#define SP(uc) ((uc)->uc_mcontext.gregs[REG_RSP])
#define STACK_WORDS WORDS
#elif defined(__aarch64__)
#define PC(uc) ((uc)->uc_mcontext.pc)
#define SP(uc) ((uc)->uc_mcontext.sp)
#define LINK(uc) ((uc)->uc_mcontext.regs[30])
#define STACK_WORDS (WORDS - 1)
#else
#error "pcsample: no program-counter accessor for this architecture"
#endif

#define HZ 250
#define MAX_SAMPLES (1ul << 18) /* 17 minutes of CPU time */

struct sample {
    unsigned long pc;
    unsigned long words[WORDS];
};

static struct sample *samples;
static unsigned long taken;

static void on_sigprof(int sig, siginfo_t *info, void *context) {
    (void)sig;
    (void)info;
    unsigned long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i >= MAX_SAMPLES)
        return;
    ucontext_t *uc = context;
    struct sample *s = &samples[i];
    unsigned long *words = s->words;
    s->pc = (unsigned long)PC(uc);
#ifdef LINK
    *words++ = (unsigned long)LINK(uc);
#endif
    /* The handler runs on the interrupted stack, so the words above the
     * interrupted stack pointer are mapped: at the very top of a stack sit
     * the arguments and the environment, or the thread's control block. */
    const unsigned long *sp = (const unsigned long *)SP(uc);
    for (int w = 0; w < STACK_WORDS; w++)
        words[w] = sp[w];
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
    for (unsigned long i = 0; i < n; i++) {
        fprintf(out, "S %lx", samples[i].pc);
        for (int w = 0; w < WORDS; w++)
            fprintf(out, " %lx", samples[i].words[w]);
        fputc('\n', out);
    }
    fclose(out);
    fclose(maps);
}
