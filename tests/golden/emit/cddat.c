/* Generated shared-memory implementation of 'cd2dat'.
 * Schedule: (49(3A B)(2C))(4(7D)(8E(5F)))
 * Pool size: 257 words.
 */

#include <stddef.h>

typedef int token_t;

static token_t memory[257];

#define BUF_A_B (memory + 202)  /* 1 words, lifetime A->B: size=1 start=0 dur=2 periods=(2x3, 7x49) */
#define BUF_B_C (memory + 196)  /* 6 words, lifetime B->C: size=6 start=1 dur=6 periods=(7x49) */
#define BUF_C_D (memory + 0)  /* 196 words, lifetime C->D: size=196 [6, 395) */
#define BUF_D_E (memory + 196)  /* 56 words, lifetime D->E: size=56 start=343 dur=16 periods=(17x4) */
#define BUF_E_F (memory + 252)  /* 5 words, lifetime E->F: size=5 start=344 dur=2 periods=(2x8, 17x4) */

static size_t wr_A_B = 0;
static size_t rd_A_B = 0;
static size_t wr_B_C = 0;
static size_t rd_B_C = 0;
static size_t wr_C_D = 0;
static size_t rd_C_D = 0;
static size_t wr_D_E = 0;
static size_t rd_D_E = 0;
static size_t wr_E_F = 0;
static size_t rd_E_F = 0;

#define fire_A(p0) /* actor code block */
#define fire_B(p0, p1) /* actor code block */
#define fire_C(p0, p1) /* actor code block */
#define fire_D(p0, p1) /* actor code block */
#define fire_E(p0, p1) /* actor code block */
#define fire_F(p0) /* actor code block */

void run_one_period(void)
{
    {
        wr_C_D = 0;
        rd_C_D = 0;
        for (int i2 = 0; i2 < 49; ++i2) {
            wr_B_C = 0;
            rd_B_C = 0;
            for (int i3 = 0; i3 < 3; ++i3) {
                wr_A_B = 0;
                rd_A_B = 0;
                {
                    fire_A(BUF_A_B + wr_A_B);
                    wr_A_B += 1;
                }
                {
                    fire_B(BUF_A_B + rd_A_B, BUF_B_C + wr_B_C);
                    rd_A_B += 1;
                    wr_B_C += 2;
                }
            }
            for (int r = 0; r < 2; ++r) {
                fire_C(BUF_B_C + rd_B_C, BUF_C_D + wr_C_D);
                rd_B_C += 3;
                wr_C_D += 2;
            }
        }
        for (int i2 = 0; i2 < 4; ++i2) {
            wr_D_E = 0;
            rd_D_E = 0;
            for (int r = 0; r < 7; ++r) {
                fire_D(BUF_C_D + rd_C_D, BUF_D_E + wr_D_E);
                rd_C_D += 7;
                wr_D_E += 8;
            }
            for (int i3 = 0; i3 < 8; ++i3) {
                wr_E_F = 0;
                rd_E_F = 0;
                {
                    fire_E(BUF_D_E + rd_D_E, BUF_E_F + wr_E_F);
                    rd_D_E += 7;
                    wr_E_F += 5;
                }
                for (int r = 0; r < 5; ++r) {
                    fire_F(BUF_E_F + rd_E_F);
                    rd_E_F += 1;
                }
            }
        }
    }
}

void init_delays(void)
{
}

int main(void)
{
    init_delays();
    for (;;) {
        run_one_period();
    }
    return 0;
}
