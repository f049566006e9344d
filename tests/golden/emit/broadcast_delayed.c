/* Generated shared-memory implementation of 'broadcast_delayed'.
 * Schedule: (4n1 n0)n2(5n4)(4n5)(3n3)(4n6)
 * Pool size: 107 words.
 */

#include <stddef.h>

typedef int token_t;

static token_t memory[107];

#define BUF_N1_N0 (memory + 68)  /* 1 words, lifetime n1->n0: size=1 start=0 dur=2 periods=(2x4) */
#define BUF_N1_N4 (memory + 44)  /* 20 words, lifetime n1->n4: size=20 [0, 10) */
#define BUF_N4_N5 (memory + 87)  /* 20 words, lifetime n4->n5: size=20 [9, 11) */
#define BUF_N0_N3 (memory + 32)  /* 12 words, lifetime n0->n3: size=12 [1, 12) */
#define BUF_N1_N2 (memory + 64)  /* 4 words, lifetime n1->n2: size=4 [0, 9) */
#define BUF_N2_N6 (memory + 68)  /* 4 words, lifetime n2->n6: size=4 [8, 13) */
#define BUF_N5_N3 (memory + 44)  /* 12 words, lifetime n5->n3: size=12 [10, 12) */
#define BUF_N4_N3 (memory + 72)  /* 15 words, lifetime n4->n3: size=15 [9, 12) */
#define BUF_N5__BC0 (memory + 0)  /* 24 words, lifetime n5=>bc0: size=24 [0, 13) */
#define BUF_N1__BC1 (memory + 24)  /* 8 words, lifetime n1=>bc1: size=8 [0, 13) */

static size_t wr_n1_n0 = 0;
static size_t rd_n1_n0 = 0;
static size_t wr_n1_n4 = 0;
static size_t rd_n1_n4 = 0;
static size_t wr_n4_n5 = 0;
static size_t rd_n4_n5 = 0;
static size_t wr_n0_n3 = 0;
static size_t rd_n0_n3 = 0;
static size_t wr_n1_n2 = 0;
static size_t rd_n1_n2 = 0;
static size_t wr_n2_n6 = 0;
static size_t rd_n2_n6 = 0;
static size_t wr_n5_n3 = 0;
static size_t rd_n5_n3 = 0;
static size_t wr_n4_n3 = 0;
static size_t rd_n4_n3 = 0;
static size_t wr_bc_bc0 = 0;
static size_t rd_n5_n3_1 = 0;
static size_t rd_n5_n6 = 0;
static size_t wr_bc_bc1 = 0;
static size_t rd_n1_n0_1 = 0;
static size_t rd_n1_n5 = 0;
static size_t rd_n1_n6 = 0;

#define fire_n0(p0, p1, p2) /* actor code block */
#define fire_n1(p0, p1, p2, p3) /* actor code block */
#define fire_n2(p0, p1) /* actor code block */
#define fire_n3(p0, p1, p2, p3) /* actor code block */
#define fire_n4(p0, p1, p2) /* actor code block */
#define fire_n5(p0, p1, p2, p3) /* actor code block */
#define fire_n6(p0, p1, p2) /* actor code block */

void run_one_period(void)
{
    /* initial tokens (delays) are assumed to be
     * preloaded by init_delays() below. */
    {
        wr_n1_n4 = 0;
        rd_n1_n4 = 0;
        wr_n0_n3 = 0;
        rd_n0_n3 = 0;
        wr_n1_n2 = 0;
        rd_n1_n2 = 0;
        wr_bc_bc1 = 0;
        rd_n1_n0_1 = 0;
        rd_n1_n5 = 0;
        rd_n1_n6 = 0;
        for (int i2 = 0; i2 < 4; ++i2) {
            wr_n1_n0 = 0;
            rd_n1_n0 = 0;
            {
                fire_n1(BUF_N1_N0 + wr_n1_n0, BUF_N1_N4 + wr_n1_n4, BUF_N1_N2 + wr_n1_n2, BUF_N1__BC1 + wr_bc_bc1);
                wr_n1_n0 += 1;
                wr_n1_n4 += 5;
                wr_n1_n2 += 1;
                wr_bc_bc1 += 2;
            }
            {
                fire_n0(BUF_N1_N0 + rd_n1_n0, BUF_N1__BC1 + rd_n1_n0_1, BUF_N0_N3 + wr_n0_n3);
                rd_n1_n0 += 1;
                rd_n1_n0_1 += 2;
                wr_n0_n3 += 3;
            }
        }
        {
            wr_n2_n6 = 0;
            rd_n2_n6 = 0;
            {
                fire_n2(BUF_N1_N2 + rd_n1_n2, BUF_N2_N6 + wr_n2_n6);
                rd_n1_n2 += 4;
                wr_n2_n6 += 4;
            }
            {
                wr_n4_n5 = 0;
                rd_n4_n5 = 0;
                wr_n4_n3 = 0;
                rd_n4_n3 = 0;
                for (int r = 0; r < 5; ++r) {
                    fire_n4(BUF_N1_N4 + rd_n1_n4, BUF_N4_N5 + wr_n4_n5, BUF_N4_N3 + wr_n4_n3);
                    rd_n1_n4 += 4;
                    wr_n4_n5 += 4;
                    wr_n4_n3 += 3;
                }
                {
                    wr_n5_n3 = 0;
                    rd_n5_n3 = 0;
                    for (int r = 0; r < 4; ++r) {
                        fire_n5(BUF_N4_N5 + rd_n4_n5, BUF_N1__BC1 + rd_n1_n5, BUF_N5_N3 + wr_n5_n3, BUF_N5__BC0 + wr_bc_bc0);
                        rd_n4_n5 += 5;
                        rd_n1_n5 += 2;
                        wr_n5_n3 += 3;
                        wr_bc_bc0 = (wr_bc_bc0 + 3) % 24;
                    }
                    {
                        for (int r = 0; r < 3; ++r) {
                            fire_n3(BUF_N0_N3 + rd_n0_n3, BUF_N5_N3 + rd_n5_n3, BUF_N4_N3 + rd_n4_n3, BUF_N5__BC0 + rd_n5_n3_1);
                            rd_n0_n3 += 4;
                            rd_n5_n3 += 4;
                            rd_n4_n3 += 5;
                            rd_n5_n3_1 = (rd_n5_n3_1 + 4) % 24;
                        }
                        for (int r = 0; r < 4; ++r) {
                            fire_n6(BUF_N2_N6 + rd_n2_n6, BUF_N5__BC0 + rd_n5_n6, BUF_N1__BC1 + rd_n1_n6);
                            rd_n2_n6 += 1;
                            rd_n5_n6 = (rd_n5_n6 + 3) % 24;
                            rd_n1_n6 += 2;
                        }
                    }
                }
            }
        }
    }
}

void init_delays(void)
{
    wr_bc_bc0 = 12 % 24;
}

int main(void)
{
    init_delays();
    for (;;) {
        run_one_period();
    }
    return 0;
}
