package repro.perfbench

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path, StandardCopyOption}
import java.security.MessageDigest
import java.util.concurrent.Executors
import org.apache.spark.ml.fpm.FPGrowth
import org.apache.spark.sql.{DataFrame, SparkSession}
import scala.concurrent.duration.Duration
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.jdk.CollectionConverters._

/** The recipes of one input, collected to the Spark driver. */
final case class Rows(cuisine: Array[String], ingredients: Array[Seq[String]], items: Array[Seq[String]]) {
  def size: Int = cuisine.length
}

/** The benchmark's own answers, computed outside the timed region and
  * without the program's mining or authenticity code.
  */
object Reference {

  def collect(recipes: DataFrame): Rows = {
    val spark = recipes.sparkSession
    import spark.implicits._
    val rows = recipes.select("id", "cuisine", "ingredients", "items")
      .as[(Long, String, Seq[String], Seq[String])].collect().sortBy(_._1)
    Rows(rows.map(_._2), rows.map(_._3), rows.map(_._4))
  }

  /** Content hash of an input; keys the cache of mined references. */
  def digest(rows: Rows): String = {
    val md = MessageDigest.getInstance("SHA-256")
    rows.cuisine.indices.foreach { i =>
      md.update(rows.cuisine(i).getBytes(UTF_8))
      rows.items(i).foreach { it => md.update(0: Byte); md.update(it.getBytes(UTF_8)) }
      md.update(1: Byte)
    }
    md.digest().take(12).map("%02x".format(_)).mkString
  }

  /** Per cuisine: recipe count and every itemset with freq / n >= minSupport. */
  final case class Mined(n: Map[String, Long], itemsets: Map[String, Map[Set[String], Long]])

  /** Mines each cuisine with MLlib's `ml.fpm.FPGrowth`, one cuisine per
    * single-partition job, `threads` cuisines at a time. MLlib mines one
    * count below the threshold; the exact filter `freq / n >= minSupport`
    * then decides, so no rounding of the threshold is shared with the
    * program. Results are cached in `cacheDir` by input digest and support.
    */
  def mine(spark: SparkSession, rows: Rows, minSupport: Double, threads: Int, cacheDir: Path): Mined = {
    val file = cacheDir.resolve(s"mllib-${digest(rows)}-$minSupport.tsv")
    if (Files.exists(file)) read(file)
    else {
      val mined = mineWithMllib(spark, rows, minSupport, threads)
      write(mined, file)
      mined
    }
  }

  private def mineWithMllib(spark: SparkSession, rows: Rows, minSupport: Double, threads: Int): Mined = {
    import spark.implicits._
    val byCuisine = rows.cuisine.indices.groupBy(rows.cuisine(_))
    val pool = Executors.newFixedThreadPool(threads)
    implicit val ec: ExecutionContext = ExecutionContext.fromExecutorService(pool)
    try {
      val jobs = byCuisine.toSeq.map { case (c, idx) =>
        Future {
          val n = idx.size.toLong
          val tx = spark.sparkContext.parallelize(idx.map(rows.items(_)), 1).toDF("items")
          val model = new FPGrowth().setItemsCol("items").setNumPartitions(1)
            .setMinSupport(math.max(0.0, minSupport - 1.0 / n)).fit(tx)
          val sets = model.freqItemsets.as[(Seq[String], Long)].collect()
            .collect { case (items, freq) if freq.toDouble / n >= minSupport => items.toSet -> freq }
          (c, n, sets.toMap)
        }
      }
      val done = Await.result(Future.sequence(jobs), Duration.Inf)
      Mined(done.map(d => d._1 -> d._2).toMap, done.map(d => d._1 -> d._3).toMap)
    } finally pool.shutdown()
  }

  private def write(m: Mined, file: Path): Unit = {
    val lines = m.n.toSeq.sorted.flatMap { case (c, n) =>
      s"c\t$c\t$n" +: m.itemsets(c).toSeq.map { case (s, f) => s"i\t$c\t$f\t${s.toSeq.sorted.mkString("\u001f")}" }
    }
    Files.createDirectories(file.getParent)
    val tmp = Files.createTempFile(file.getParent, "mllib", ".part")
    Files.write(tmp, lines.asJava, UTF_8)
    Files.move(tmp, file, StandardCopyOption.ATOMIC_MOVE, StandardCopyOption.REPLACE_EXISTING)
  }

  private def read(file: Path): Mined = {
    val fields = Files.readAllLines(file, UTF_8).asScala.map(_.split("\t", -1))
    val n = fields.collect { case Array("c", c, cnt) => c -> cnt.toLong }.toMap
    val sets = fields.collect { case Array("i", c, f, items) => (c, items.split("\u001f").toSet, f.toLong) }
      .groupBy(_._1).map { case (c, xs) => c -> xs.map(x => x._2 -> x._3).toMap }
    Mined(n, n.keys.map(c => c -> sets.getOrElse(c, Map.empty[Set[String], Long])).toMap)
  }

  /** Relative prevalence over cuisines (rows, sorted) × ingredients
    * (columns, sorted), from plain counts:
    *   P_i^c = n_i^c / N_c,   p_i^c = P_i^c − (Σ_k P_i^k − P_i^c) / (K − 1).
    * `nonZero` counts the (cuisine, ingredient) pairs that occur at all.
    */
  final case class Prevalence(cuisines: IndexedSeq[String], items: IndexedSeq[String],
                              rel: Array[Array[Double]], nonZero: Long)

  def prevalence(rows: Rows): Prevalence = {
    val cuisines = rows.cuisine.distinct.sorted.toIndexedSeq
    val items = rows.ingredients.iterator.flatten.toSeq.distinct.sorted.toIndexedSeq
    val ci = cuisines.zipWithIndex.toMap
    val ii = items.zipWithIndex.toMap
    val counts = Array.fill(cuisines.size)(new Array[Long](items.size))
    val nc = new Array[Long](cuisines.size)
    rows.cuisine.indices.foreach { r =>
      val c = ci(rows.cuisine(r))
      nc(c) += 1
      rows.ingredients(r).distinct.foreach(i => counts(c)(ii(i)) += 1)
    }
    val p = Array.tabulate(cuisines.size, items.size)((c, i) => counts(c)(i).toDouble / nc(c))
    val k = cuisines.size
    require(k >= 2, "relative prevalence needs at least two cuisines")
    val rel = Array.tabulate(k, items.size) { (c, i) =>
      var others = 0.0
      var o = 0
      while (o < k) { if (o != c) others += p(o)(i); o += 1 }
      p(c)(i) - others / (k - 1)
    }
    Prevalence(cuisines, items, rel, counts.iterator.map(_.count(_ > 0).toLong).sum)
  }
}
