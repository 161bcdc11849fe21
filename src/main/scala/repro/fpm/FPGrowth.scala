package repro.fpm

import org.apache.spark.sql.Dataset
import scala.collection.immutable.ArraySeq
import scala.collection.mutable

/** One mined frequent itemset with absolute and relative frequency. */
final case class FreqItemset(items: Seq[String], freq: Long, support: Double)

/** FP-Growth with one rank-encoded core (rank items, encode transactions
  * as sorted `Int` ranks, build an [[FPTree]], extract) and two drivers:
  *
  *  - [[mineLocal]] mines an in-memory collection with a single tree — the
  *    pipeline's per-cuisine miner, run inside one Spark task per cuisine;
  *  - [[mine]] is a from-scratch Parallel FP-Growth (Li et al., RecSys 2008;
  *    the same scheme Spark MLlib implements) over the Dataset API:
  *     1. count item frequencies and rank the frequent ones;
  *     2. encode each transaction and emit one *conditional transaction* per
  *        item group (gid = rank % numGroups): the prefix up to the last
  *        item of that group;
  *     3. per group, mine the conditional transactions, keeping only
  *        itemsets whose suffix belongs to the group — each frequent itemset
  *        is produced by exactly one group.
  *
  * Validated in tests against MLlib's `ml.fpm.FPGrowth`, [[Apriori]] and
  * [[BruteForce]].
  */
object FPGrowth {

  /** minCount such that freq/total >= minSupport  <=>  freq >= minCount. */
  def minCountFor(minSupport: Double, total: Long): Long =
    math.ceil(minSupport * total).toLong

  /** Mine frequent itemsets from string transactions.
    *
    * @param transactions one item sequence per row (duplicates within a
    *                     transaction are ignored)
    * @param minSupport   relative support threshold in (0, 1]
    * @param numGroups    PFP group count (parallelism of the mining stage)
    */
  def mine(
      transactions: Dataset[Seq[String]],
      minSupport: Double,
      numGroups: Int = 32,
  ): Dataset[FreqItemset] = {
    requireSupport(minSupport)
    require(numGroups > 0, s"numGroups must be positive")
    val spark = transactions.sparkSession
    import spark.implicits._

    val total = transactions.count()
    require(total > 0, "cannot mine an empty transaction set")
    val minCount = minCountFor(minSupport, total)

    // Pass 1: frequent items, ranked.
    val counts = transactions.flatMap(_.distinct).groupByKey(identity).count().collect()
    val items = spark.sparkContext.broadcast(rank(counts, minCount))
    val nG = numGroups

    // Pass 2: group-dependent conditional transactions.
    val cond: Dataset[(Int, Array[Int])] = transactions.mapPartitions { ts =>
      val ranks = items.value.zipWithIndex.toMap
      ts.flatMap { t =>
        val encoded = encode(t, ranks)
        val out = mutable.Map.empty[Int, Array[Int]]
        var i = encoded.length - 1
        while (i >= 0) {
          val gid = encoded(i) % nG
          if (!out.contains(gid)) out(gid) = java.util.Arrays.copyOfRange(encoded, 0, i + 1)
          i -= 1
        }
        out
      }
    }

    // Pass 3: per-group mining of the suffixes each group owns.
    cond
      .groupByKey(_._1)
      .flatMapGroups { (gid: Int, it: Iterator[(Int, Array[Int])]) =>
        extract(it.map(_._2), minCount, _ % nG == gid, items.value, total)
      }
  }

  /** Single-tree FP-Growth over an in-memory collection (duplicates within
    * a transaction are ignored), e.g. one cuisine: at most 16,582
    * transactions (Italian at SF=1).
    */
  def mineLocal(transactions: Seq[Seq[String]], minSupport: Double): Seq[FreqItemset] = {
    requireSupport(minSupport)
    val total = transactions.size.toLong
    require(total > 0, "cannot mine an empty transaction set")
    val minCount = minCountFor(minSupport, total)
    val counts = mutable.Map.empty[String, Long].withDefaultValue(0L)
    transactions.foreach(_.distinct.foreach(i => counts(i) += 1))
    val items = rank(counts, minCount)
    val ranks = items.zipWithIndex.toMap
    extract(transactions.iterator.map(encode(_, ranks)), minCount, _ => true, items, total).toSeq
  }

  private def requireSupport(minSupport: Double): Unit =
    require(minSupport > 0 && minSupport <= 1, s"minSupport $minSupport outside (0,1]")

  /** Items with count >= minCount, most frequent first (ties by name), so
    * rank i is the item at index i.
    */
  private def rank(counts: Iterable[(String, Long)], minCount: Long): Array[String] =
    counts.iterator.filter(_._2 >= minCount).toArray.sortBy { case (i, c) => (-c, i) }.map(_._1)

  /** A transaction as the sorted ranks of its distinct frequent items. */
  private def encode(t: Seq[String], ranks: Map[String, Int]): Array[Int] = {
    val r = t.iterator.flatMap(ranks.get).toArray.distinct
    java.util.Arrays.sort(r)
    r
  }

  /** Builds one tree over rank-encoded transactions and decodes every
    * itemset of count >= minCount whose suffix rank passes `accept`.
    */
  private def extract(encoded: Iterator[Array[Int]], minCount: Long, accept: Int => Boolean,
                      items: Array[String], total: Long): Iterator[FreqItemset] = {
    val tree = new FPTree[Int]
    encoded.foreach(t => tree.add(ArraySeq.unsafeWrapArray(t)))
    tree.extract(minCount, accept).map { case (ranks, cnt) =>
      FreqItemset(ranks.map(items).sorted, cnt, cnt.toDouble / total)
    }
  }
}
